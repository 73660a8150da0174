package instance

import (
	"testing"

	"dilu/internal/gpu"
	"dilu/internal/model"
	"dilu/internal/rckm"
)

// TestApplySaturationMatchesSpec checks that the memoized K equals
// Spec.InferSatK at every batch size, in any order of first use, and that
// each call writes it to every stage — a resident swapped in after the
// size was first seen gets it too.
func TestApplySaturationMatchesSpec(t *testing.T) {
	spec := model.ByName("BERT-base")
	w := newWorld(rckm.Exclusive{})
	st := w.addStage(t, "i0", true, spec.InferMemMB, 0.3, 0.6)
	inf := NewInference("i0", "bert", spec, 4, []Stage{st}, nil)
	llm := &LLM{Spec: spec, Stages: []Stage{st}}
	for _, n := range []int{7, 1, 3, 7, model.MaxIBS, 2, 3} {
		want := spec.InferSatK(n)
		st.Res.SatK = -1
		inf.applySaturation(n)
		if st.Res.SatK != want {
			t.Fatalf("Inference batch %d: SatK %v, want %v", n, st.Res.SatK, want)
		}
		st.Res.SatK = -1
		llm.applySaturation(n)
		if st.Res.SatK != want {
			t.Fatalf("LLM batch %d: SatK %v, want %v", n, st.Res.SatK, want)
		}
	}
	swapped, err := w.dev.Attach("i0-swap", 1)
	if err != nil {
		t.Fatal(err)
	}
	inf.Stages[0].Res = swapped
	inf.applySaturation(3)
	if swapped.SatK != spec.InferSatK(3) {
		t.Fatalf("swapped-in resident: SatK %v, want %v", swapped.SatK, spec.InferSatK(3))
	}
}

// TestApplySaturationDoesNotAllocate guards the batch-formation path:
// once a batch size has been seen, setting its K allocates nothing.
func TestApplySaturationDoesNotAllocate(t *testing.T) {
	spec := model.ByName("BERT-base")
	dev := gpu.NewDevice("g0")
	a, _ := dev.Attach("a", 1)
	b, _ := dev.Attach("b", 1)
	stages := []Stage{{Res: a}, {Res: b}}
	inf := NewInference("i0", "bert", spec, 8, stages, nil)
	llm := &LLM{Spec: spec, Stages: stages}
	for n := 1; n <= 16; n++ {
		inf.applySaturation(n)
		llm.applySaturation(n)
	}
	n := 0
	if allocs := testing.AllocsPerRun(100, func() {
		n = n%16 + 1
		inf.applySaturation(n)
		llm.applySaturation(n)
	}); allocs != 0 {
		t.Fatalf("warmed-up applySaturation allocates %v times per call", allocs)
	}
}

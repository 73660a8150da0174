package instance

import (
	"math"
	"testing"

	"dilu/internal/gpu"
	"dilu/internal/metrics"
	"dilu/internal/model"
	"dilu/internal/rckm"
	"dilu/internal/sim"
)

// multiWorld runs n GPUs, each with its own manager, under one engine.
type multiWorld struct {
	eng   *sim.Engine
	devs  []*gpu.Device
	mgrs  []*rckm.Manager
	insts []Ticker
}

func newMultiWorld(n int, policy rckm.Policy) *multiWorld {
	w := &multiWorld{eng: sim.NewEngine()}
	for i := 0; i < n; i++ {
		d := gpu.NewDevice("g")
		w.devs = append(w.devs, d)
		w.mgrs = append(w.mgrs, rckm.NewManager(d, policy, rckm.DefaultConfig()))
	}
	w.eng.SetTick(func(now sim.Time) {
		for _, in := range w.insts {
			in.PreTick(now)
		}
		for _, m := range w.mgrs {
			m.Issue(now)
		}
		for _, d := range w.devs {
			d.ExecuteTick()
		}
		for _, in := range w.insts {
			in.PostTick(now)
		}
	})
	return w
}

func (w *multiWorld) stage(t *testing.T, gpuIdx int, id string, slo bool, mem, req, lim float64) Stage {
	t.Helper()
	res, err := w.devs[gpuIdx].Attach(id, mem)
	if err != nil {
		t.Fatal(err)
	}
	c := &rckm.Client{ID: id, Res: res, SLOSensitive: slo, Request: req, Limit: lim}
	w.mgrs[gpuIdx].Register(c)
	return Stage{Res: res, Client: c}
}

func TestPipelineTrainingJob(t *testing.T) {
	// LLaMA2-7B fine-tune: 4 pipeline stage workers on 4 GPUs. Samples
	// count once per iteration (not × workers) and the bubble (TrainSync)
	// idles each GPU ~20%.
	spec := model.ByName("LLaMA2-7B")
	w := newMultiWorld(4, rckm.Exclusive{})
	var stages []Stage
	for i := 0; i < 4; i++ {
		stages = append(stages, w.stage(t, i, "w", false, spec.TrainMemMB, 1, 1))
	}
	tr := NewTraining("ft", "llama-ft", spec, stages)
	if !tr.Pipeline {
		t.Fatal("LLaMA jobs must run in pipeline mode")
	}
	tr.SetActive(true)
	w.insts = append(w.insts, tr)
	w.eng.Run(30 * sim.Second)

	wantIters := 30 / spec.TrainIterTime(1.0).Seconds()
	if got := float64(tr.Iterations()); math.Abs(got-wantIters)/wantIters > 0.15 {
		t.Fatalf("iterations = %v, want ~%v", got, wantIters)
	}
	wantSamples := float64(tr.Iterations()) * float64(spec.TrainSamples)
	if tr.Samples() != wantSamples {
		t.Fatalf("pipeline samples = %v, want %v (not ×workers)", tr.Samples(), wantSamples)
	}
	for _, d := range w.devs {
		if occ := d.MeanOccupancy(); occ < 0.6 || occ > 0.9 {
			t.Fatalf("stage occupancy %v, want ~0.8 (20%% bubble)", occ)
		}
	}
}

func TestPipelineInferenceStraggler(t *testing.T) {
	// A 2-stage LLM where one stage's GPU is contended: the decode step
	// completes at the slow stage's pace (barrel effect across shards).
	spec := model.ByName("LLaMA2-7B")
	w := newMultiWorld(2, rckm.MPS{UseLimit: true})
	fast := w.stage(t, 0, "s0", true, spec.InferMemMB/2, 1, 1)
	slow := w.stage(t, 1, "s1", true, spec.InferMemMB/2, 0.25, 0.25)
	rec := metrics.NewLatencyRecorder("llm", spec.SLO)
	inf := NewInference("i", "llm", spec, 1, []Stage{fast, slow}, rec)
	inf.SetActive(true)
	w.insts = append(w.insts, inf)
	inf.Enqueue(Request{ID: 1, Arrive: 0})
	w.eng.Run(5 * sim.Second)
	if rec.Count() != 1 {
		t.Fatalf("served %d", rec.Count())
	}
	// Both-stages-fast TPOT reference.
	wFast := newMultiWorld(2, rckm.MPS{UseLimit: true})
	a := wFast.stage(t, 0, "s0", true, spec.InferMemMB/2, 1, 1)
	b := wFast.stage(t, 1, "s1", true, spec.InferMemMB/2, 1, 1)
	recFast := metrics.NewLatencyRecorder("llm", spec.SLO)
	inf2 := NewInference("i", "llm", spec, 1, []Stage{a, b}, recFast)
	inf2.SetActive(true)
	wFast.insts = append(wFast.insts, inf2)
	inf2.Enqueue(Request{ID: 1, Arrive: 0})
	wFast.eng.Run(5 * sim.Second)
	if rec.Mean() <= recFast.Mean() {
		t.Fatalf("straggler stage should slow the pipeline: %v vs %v", rec.Mean(), recFast.Mean())
	}
}

func TestInferencePressureFlagLifecycle(t *testing.T) {
	spec := model.ByName("BERT-base")
	w := newMultiWorld(1, rckm.Dilu{})
	st := w.stage(t, 0, "i", true, spec.InferMemMB, 0.3, 0.6)
	inf := NewInference("i", "bert", spec, 2, []Stage{st}, nil)
	inf.SetActive(true)
	w.insts = append(w.insts, inf)
	for i := 0; i < 12; i++ {
		inf.Enqueue(Request{ID: int64(i), Arrive: 0})
	}
	w.eng.Step()
	if !st.Client.Pressured() {
		t.Fatal("deep queue should raise the pressure flag")
	}
	w.eng.Run(3 * sim.Second)
	if st.Client.Pressured() {
		t.Fatal("drained queue should clear the pressure flag")
	}
	if inf.Served() != 12 {
		t.Fatalf("served %d / 12", inf.Served())
	}
}

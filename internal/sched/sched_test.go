package sched

import (
	"fmt"
	"testing"
	"testing/quick"

	"dilu/internal/cluster"
	"dilu/internal/model"
	"dilu/internal/profiler"
)

func infProfile(name string) profiler.Profile {
	return profiler.For(model.ByName(name), profiler.RoleInference)
}

func trainProfile(name string) profiler.Profile {
	return profiler.For(model.ByName(name), profiler.RoleTraining)
}

func TestDiluPacksComplementaryInstances(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 2, GPUsPerNode: 4})
	s := NewDilu(clu, Options{})
	// A training worker (req ~0.4-0.6) and an inference instance
	// (req ~0.2-0.3) complement each other on one GPU.
	dTrain, err := s.Schedule(Request{Func: "bert-train", Profile: trainProfile("BERT-base"), Instances: 1})
	if err != nil {
		t.Fatal(err)
	}
	dInf, err := s.Schedule(Request{Func: "rob-inf", Profile: infProfile("RoBERTa-large"), Instances: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dTrain[0].GPUs[0] != dInf[0].GPUs[0] {
		t.Fatalf("complementary instances not collocated: %s vs %s",
			dTrain[0].GPUs[0].ID, dInf[0].GPUs[0].ID)
	}
	if clu.OccupiedCount() != 1 {
		t.Fatalf("occupied %d GPUs, want 1", clu.OccupiedCount())
	}
}

func TestDiluRespectsOmega(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 2})
	s := NewDilu(clu, Options{Omega: 1.0, Gamma: 1.5})
	p := trainProfile("GPT2-large") // request ~0.5-0.7
	if _, err := s.Schedule(Request{Func: "a", Profile: p}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(Request{Func: "b", Profile: p}); err != nil {
		t.Fatal(err)
	}
	// Both GPUs now hold one heavy training each; a third must fail or
	// land only where Σreq stays ≤ Ω.
	for _, g := range clu.GPUs() {
		if g.SumReq > 1+1e-9 {
			t.Fatalf("gpu %s oversubscribed on requests: %v", g.ID, g.SumReq)
		}
	}
}

func TestDiluGammaBoundsLimits(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 1})
	s := NewDilu(clu, Options{Gamma: 1.2})
	p := infProfile("RoBERTa-large")
	placed := 0
	for i := 0; i < 10; i++ {
		if _, err := s.Schedule(Request{Func: fmt.Sprintf("f%d", i), Profile: p}); err != nil {
			break
		}
		placed++
	}
	g := clu.GPUs()[0]
	if g.SumLim > 1.2+1e-9 {
		t.Fatalf("Σ limits %v exceed γ=1.2", g.SumLim)
	}
	if placed == 0 {
		t.Fatal("nothing placed")
	}
}

func TestDiluOpensNewGPUWhenFull(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 4})
	s := NewDilu(clu, Options{})
	p := trainProfile("GPT2-large")
	for i := 0; i < 4; i++ {
		if _, err := s.Schedule(Request{Func: fmt.Sprintf("t%d", i), Profile: p}); err != nil {
			t.Fatalf("placement %d: %v", i, err)
		}
	}
	if clu.OccupiedCount() < 2 {
		t.Fatalf("heavy jobs should spill to new GPUs, occupied=%d", clu.OccupiedCount())
	}
}

func TestDiluNoCapacityError(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 1})
	s := NewDilu(clu, Options{})
	p := trainProfile("GPT2-large")
	if _, err := s.Schedule(Request{Func: "a", Profile: p, Instances: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(Request{Func: "b", Profile: p, Instances: 5}); err == nil {
		t.Fatal("expected no-capacity error")
	}
	// Failed batch must roll back entirely.
	total := 0
	for _, g := range clu.GPUs() {
		total += len(g.Placements)
	}
	if total != 1 {
		t.Fatalf("rollback failed: %d placements", total)
	}
}

func TestDiluWorkloadAffinityReplication(t *testing.T) {
	// Figure 5(b): once func-a and func-b collocate on GPU-1, a new
	// func-b instance should land with func-a's new instance rather than
	// a random third function.
	clu := cluster.New(cluster.Config{Nodes: 2, GPUsPerNode: 4})
	s := NewDilu(clu, Options{})
	pa := trainProfile("BERT-base")
	pb := infProfile("RoBERTa-large")
	pc := infProfile("BERT-base")
	da, _ := s.Schedule(Request{Func: "a", Profile: pa})
	db, _ := s.Schedule(Request{Func: "b", Profile: pb})
	if da[0].GPUs[0] != db[0].GPUs[0] {
		t.Skip("setup: a and b did not collocate")
	}
	// c joins wherever it fits.
	_, _ = s.Schedule(Request{Func: "c", Profile: pc})
	// A second a: same-function anti-affinity pushes it to a fresh fragment.
	da2, _ := s.Schedule(Request{Func: "a", Profile: pa})
	if da2[0].GPUs[0] == da[0].GPUs[0] {
		t.Skip("setup: a-2 stacked with a-1")
	}
	// Now b scales out: affinity should prefer the GPU hosting a-2 (b's
	// proven partner), not c's GPU.
	db2, err := s.Schedule(Request{Func: "b", Profile: pb})
	if err != nil {
		t.Fatal(err)
	}
	if db2[0].GPUs[0] != da2[0].GPUs[0] {
		t.Fatalf("affinity ignored: b-2 on %s, a-2 on %s", db2[0].GPUs[0].ID, da2[0].GPUs[0].ID)
	}
}

func TestDiluAffinityDisabled(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 2, GPUsPerNode: 4})
	s := NewDilu(clu, Options{DisableAffinity: true})
	p := infProfile("BERT-base")
	if _, err := s.Schedule(Request{Func: "x", Profile: p, Instances: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestDiluMultiGPUWorstFit(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 4})
	s := NewDilu(clu, Options{})
	// Fill GPU 0 with a memory-heavy training worker.
	if _, err := s.Schedule(Request{Func: "t", Profile: trainProfile("GPT2-large")}); err != nil {
		t.Fatal(err)
	}
	// LLaMA over 4 fragments: worst-fit must prefer the 3 empty GPUs
	// plus the fullest only as the last resort.
	p := infProfile("LLaMA2-7B")
	d, err := s.Schedule(Request{Func: "llm", Profile: p, GPUsPerInstance: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(d[0].GPUs) != 4 {
		t.Fatalf("stages = %d", len(d[0].GPUs))
	}
	seen := map[string]bool{}
	for _, g := range d[0].GPUs {
		if seen[g.ID] {
			t.Fatal("stage GPUs must be distinct")
		}
		seen[g.ID] = true
	}
}

// TestDiluMultiGPUTieOrder pins the worst-fit selection's tie order.
// The selection swaps the winner forward, so A (displaced by C) lands
// behind B and the B/A tie resolves to B. A stable selection would pick
// A, the earlier GPU in inventory order.
func TestDiluMultiGPUTieOrder(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 3})
	gpus := clu.GPUs()
	const gb = 1024.0
	for i, free := range []float64{10 * gb, 10 * gb, 20 * gb} { // A, B, C
		g := gpus[i]
		pl := &cluster.Placement{Instance: fmt.Sprintf("fill-%d", i), Func: "fill",
			Req: 0.1, Lim: 0.1, MemMB: g.MemCapMB - free}
		if err := g.Place(pl); err != nil {
			t.Fatal(err)
		}
	}
	s := NewDilu(clu, Options{})
	p := profiler.Profile{SMReq: 0.2, SMLim: 0.2, MemMB: 2 * gb}
	d, err := s.Schedule(Request{Func: "llm", Profile: p, GPUsPerInstance: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := []string{d[0].GPUs[0].ID, d[0].GPUs[1].ID}
	if want := []string{gpus[2].ID, gpus[1].ID}; got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("stages on %v, want %v (C, then B)", got, want)
	}
}

func TestDiluRCDisabledUsesFreshGPUs(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 2, GPUsPerNode: 4})
	s := NewDilu(clu, Options{DisableComplementary: true})
	_, _ = s.Schedule(Request{Func: "t", Profile: trainProfile("BERT-base")})
	before := clu.OccupiedCount()
	p := infProfile("LLaMA2-7B")
	d, err := s.Schedule(Request{Func: "llm", Profile: p, GPUsPerInstance: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range d[0].GPUs {
		if len(g.Placements) != 1 {
			t.Fatal("-RC stages must use dedicated GPUs")
		}
	}
	if clu.OccupiedCount() != before+4 {
		t.Fatalf("-RC should open 4 fresh GPUs (before=%d now=%d)", before, clu.OccupiedCount())
	}
}

func TestExclusiveOneGPUPerInstance(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 4})
	s := NewExclusive(clu)
	d, err := s.Schedule(Request{Func: "f", Profile: infProfile("BERT-base"), Instances: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 3 || clu.OccupiedCount() != 3 {
		t.Fatalf("decisions=%d occupied=%d", len(d), clu.OccupiedCount())
	}
	if _, err := s.Schedule(Request{Func: "g", Profile: infProfile("BERT-base"), Instances: 2}); err == nil {
		t.Fatal("expected capacity error on 5th GPU")
	}
}

func TestStaticNoOversubscription(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 2})
	s := NewINFlessL(clu)
	p := infProfile("RoBERTa-large") // limit ~0.4-0.6
	for i := 0; i < 6; i++ {
		if _, err := s.Schedule(Request{Func: fmt.Sprintf("f%d", i), Profile: p}); err != nil {
			break
		}
	}
	for _, g := range clu.GPUs() {
		if g.SumReq > 1+1e-9 {
			t.Fatalf("MPS scheduler oversubscribed: %v", g.SumReq)
		}
	}
}

func TestStaticRequestVsLimitDensity(t *testing.T) {
	// INFless+-r packs more instances per GPU than INFless+-l because the
	// request quota is smaller.
	place := func(s Scheduler) int {
		n := 0
		for i := 0; i < 32; i++ {
			if _, err := s.Schedule(Request{Func: fmt.Sprintf("f%d", i), Profile: infProfile("RoBERTa-large")}); err != nil {
				break
			}
			n++
		}
		return n
	}
	nl := place(NewINFlessL(cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 2})))
	nr := place(NewINFlessR(cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 2})))
	if nr <= nl {
		t.Fatalf("request-quota density %d should exceed limit-quota %d", nr, nl)
	}
}

func TestDiluDensityBeatsStatic(t *testing.T) {
	// The headline scheduling claim: Dilu's unequal quotas with
	// oversubscription achieve higher deployment density than MPS-l on
	// the same hardware.
	packDilu := func() int {
		s := NewDilu(cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 4}), Options{})
		n := 0
		for i := 0; i < 64; i++ {
			if _, err := s.Schedule(Request{Func: fmt.Sprintf("f%d", i), Profile: infProfile("RoBERTa-large")}); err != nil {
				break
			}
			n++
		}
		return n
	}
	packStatic := func() int {
		s := NewINFlessL(cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 4}))
		n := 0
		for i := 0; i < 64; i++ {
			if _, err := s.Schedule(Request{Func: fmt.Sprintf("f%d", i), Profile: infProfile("RoBERTa-large")}); err != nil {
				break
			}
			n++
		}
		return n
	}
	d, st := packDilu(), packStatic()
	if d <= st {
		t.Fatalf("Dilu density %d should beat MPS-l %d", d, st)
	}
}

func TestReleaseReturnsCapacity(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 1})
	s := NewDilu(clu, Options{})
	d, err := s.Schedule(Request{Func: "f", Profile: trainProfile("GPT2-large")})
	if err != nil {
		t.Fatal(err)
	}
	d[0].Release()
	if clu.OccupiedCount() != 0 {
		t.Fatal("release did not free the GPU")
	}
	if _, err := s.Schedule(Request{Func: "g", Profile: trainProfile("GPT2-large")}); err != nil {
		t.Fatalf("capacity not reusable: %v", err)
	}
}

// Property: whatever the request mix, Dilu never violates Ω, γ, or
// memory on any GPU.
func TestDiluConstraintsProperty(t *testing.T) {
	profiles := []profiler.Profile{
		infProfile("BERT-base"), infProfile("RoBERTa-large"), infProfile("GPT2-large"),
		trainProfile("BERT-base"), trainProfile("GPT2-large"), trainProfile("ResNet152"),
	}
	f := func(picks []uint8) bool {
		clu := cluster.New(cluster.Config{Nodes: 2, GPUsPerNode: 4})
		s := NewDilu(clu, Options{})
		for i, pk := range picks {
			if i > 24 {
				break
			}
			p := profiles[int(pk)%len(profiles)]
			_, _ = s.Schedule(Request{Func: fmt.Sprintf("f%d", pk%5), Profile: p})
		}
		for _, g := range clu.GPUs() {
			if g.SumReq > 1.0+1e-6 || g.SumLim > 1.5+1e-6 || g.MemUsedMB > g.MemCapMB {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestNewByName(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 1})
	for _, n := range []string{"Dilu", "Exclusive", "INFless+-l", "INFless+-r", "FaST-GS+"} {
		s, err := New(n, clu, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != n || s.Cluster() != clu {
			t.Fatalf("scheduler %q reports name %q", n, s.Name())
		}
	}
	if _, err := New("bogus", clu, Options{}); err == nil {
		t.Fatal("expected error")
	}
}

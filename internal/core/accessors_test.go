package core

import (
	"testing"

	"dilu/internal/sim"
	"dilu/internal/workload"
)

func TestSystemAccessors(t *testing.T) {
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 2, Seed: 3})
	if sys.Config().Nodes != 1 || sys.Config().Policy != "Dilu" {
		t.Fatalf("config: %+v", sys.Config())
	}
	if sys.Scheduler().Name() != "Dilu" {
		t.Fatal("scheduler accessor")
	}
	f, err := sys.DeployInference("f", "BERT-base", InferOpts{})
	if err != nil {
		t.Fatal(err)
	}
	tj, err := sys.DeployTraining("t", "BERT-base", TrainOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Functions()) != 1 || sys.Functions()[0] != f {
		t.Fatal("functions accessor")
	}
	if len(sys.Jobs()) != 1 || sys.Jobs()[0] != tj {
		t.Fatal("jobs accessor")
	}
	for _, g := range sys.Clu.GPUs() {
		if sys.Manager(g) == nil {
			t.Fatal("manager accessor")
		}
	}
}

func TestFlushPendingOnActivation(t *testing.T) {
	// Requests arriving while every instance is cold must queue at the
	// function gateway and flush once the cold start completes.
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 2, Seed: 3})
	f, err := sys.DeployInference("f", "BERT-base", InferOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Deactivate the only instance to emulate an all-cold state, then
	// submit traffic through the gateway.
	si := f.active[0]
	si.inst.SetActive(false)
	for i := 0; i < 5; i++ {
		at := sim.Time(i+1) * 50 * sim.Millisecond
		sys.Eng.Schedule(at, func(now sim.Time) { sys.Submit(now, Request{Func: "f"}) })
	}
	sys.Run(500 * sim.Millisecond)
	if f.Served() != 0 {
		t.Fatal("cold function served requests")
	}
	if len(f.pending) != 5 {
		t.Fatalf("gateway pending = %d, want 5", len(f.pending))
	}
	si.inst.SetActive(true)
	sys.Run(2 * sim.Second)
	if f.Served() != 5 {
		t.Fatalf("served %d after activation, want 5", f.Served())
	}
	if len(f.pending) != 0 {
		t.Fatal("pending not flushed")
	}
}

func TestColdStartDelaysServing(t *testing.T) {
	// A scale-out instance pays the model's cold start; requests beyond
	// the first instance's capacity wait it out.
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 2, Seed: 3})
	f, err := sys.DeployInference("f", "RoBERTa-large", InferOpts{
		Arrivals: workload.Constant{RPS: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(sim.Second)
	placementsBefore := 0
	for _, g := range sys.Clu.GPUs() {
		placementsBefore += len(g.Placements)
	}
	f.scaleOut()
	if f.InstancesActive() != 2 {
		t.Fatal("scale-out did not register")
	}
	if f.ColdStarts.Value != 1 {
		t.Fatalf("cold starts = %d", f.ColdStarts.Value)
	}
	placements := 0
	for _, g := range sys.Clu.GPUs() {
		placements += len(g.Placements)
	}
	if placements != placementsBefore+1 {
		t.Fatal("scale-out should reserve a new placement (possibly on a shared GPU — Eq. 1 minimizes GPU count)")
	}
	// The new instance is not serving yet (cold ~2.9s for RoBERTa).
	if f.active[1].inst.Active() {
		t.Fatal("instance active before cold start finished")
	}
	sys.Run(5 * sim.Second)
	if !f.active[1].inst.Active() {
		t.Fatal("instance never activated")
	}
}

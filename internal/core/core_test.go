package core

import (
	"math"
	"testing"

	"dilu/internal/scaler"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

func TestSystemServesInference(t *testing.T) {
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 2})
	f, err := sys.DeployInference("rob", "RoBERTa-large", InferOpts{
		Arrivals: workload.Poisson{RPS: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(60 * sim.Second)
	if f.Served() < 1000 {
		t.Fatalf("served %d, want ~1200", f.Served())
	}
	if svr := f.Rec.ViolationRate(); svr > 0.10 {
		t.Fatalf("SVR %.2f%% too high for an uncontended instance", svr*100)
	}
}

// TestDeployHoldsOneArrivalPending checks that a deployment's arrivals
// are pulled as they come due: a 1000 rps Poisson deployment leaves the
// engine a handful of pending events, not the 14.4 M arrivals of its
// four-hour arrival horizon.
func TestDeployHoldsOneArrivalPending(t *testing.T) {
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 2})
	before := sys.Eng.Pending()
	f, err := sys.DeployInference("rob", "RoBERTa-large", InferOpts{
		Arrivals: workload.Poisson{RPS: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Eng.Pending() - before; got > 4 {
		t.Fatalf("deploying added %d pending events, want O(1)", got)
	}
	sys.Run(sim.Second)
	if sub, _, _ := f.GatewayCounts(); sub < 900 {
		t.Fatalf("submitted %d arrivals in 1 s, want ~1000", sub)
	}
	if got := sys.Eng.Pending(); got > 16 {
		t.Fatalf("%d pending events after 1 s, want O(1)", got)
	}
}

func TestSystemTrainingThroughput(t *testing.T) {
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 4})
	tj, err := sys.DeployTraining("bert-t", "BERT-base", TrainOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(30 * sim.Second)
	if !tj.Started() {
		t.Fatal("job not placed")
	}
	thr := tj.Throughput(sys.Eng.Now())
	// Two DDP workers at limit quota each ≈ 2× per-worker limit throughput.
	perWorker := tj.Spec.TrainThroughput(tj.Profile.SMLim)
	if thr < 1.5*perWorker {
		t.Fatalf("2-worker throughput %.1f too low (per-worker %.1f)", thr, perWorker)
	}
}

func TestCollocationToyExperiment(t *testing.T) {
	// Figure 2(c)(d): Exclusive uses 4 GPUs (3 BERT-base DDP workers + 1
	// RoBERTa-large inference); collocation uses 3 GPUs, each hosting one
	// training worker + one inference instance. At high RPS collocation
	// should deliver clearly higher inference throughput for fewer GPUs
	// while training loses only a little.
	run := func(collocate bool) (infThr float64, trainThr float64, gpus int) {
		var sys *System
		var pinT, pinI []int
		var instances int
		if collocate {
			sys = MustSystem(Config{Nodes: 1, GPUsPerNode: 3, Policy: "Dilu"})
			pinT, pinI = []int{0, 1, 2}, []int{0, 1, 2}
			instances = 3
		} else {
			sys = MustSystem(Config{Nodes: 1, GPUsPerNode: 4, Policy: "Exclusive"})
			pinT, pinI = []int{0, 1, 2}, []int{3}
			instances = 1
		}
		tj, err := sys.DeployTraining("bert-t", "BERT-base", TrainOpts{Workers: 3, Pin: pinT})
		if err != nil {
			t.Fatal(err)
		}
		f, err := sys.DeployInference("rob", "RoBERTa-large", InferOpts{
			Instances: instances, Pin: pinI,
			Arrivals: workload.Poisson{RPS: 150},
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(40 * sim.Second)
		return float64(f.Served()) / 40, tj.Throughput(sys.Eng.Now()), sys.Clu.OccupiedCount()
	}
	exInf, exTrain, exGPUs := run(false)
	coInf, coTrain, coGPUs := run(true)
	if coGPUs >= exGPUs {
		t.Fatalf("collocation should use fewer GPUs: %d vs %d", coGPUs, exGPUs)
	}
	if coInf < 1.2*exInf {
		t.Fatalf("collocated inference throughput %.1f should beat exclusive %.1f by >20%%", coInf, exInf)
	}
	if coTrain < 0.80*exTrain {
		t.Fatalf("collocated training %.1f lost too much vs exclusive %.1f", coTrain, exTrain)
	}
}

func TestLazyScaleOutColdStarts(t *testing.T) {
	sys := MustSystem(Config{
		Nodes: 1, GPUsPerNode: 4,
		NewScaler: func() scaler.Policy { return scaler.NewDilu(scaler.DiluConfig{}) },
	})
	f, err := sys.DeployInference("bert", "BERT-base", InferOpts{
		Arrivals: workload.Constant{RPS: 260}, // ~2× one instance's capacity
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(120 * sim.Second)
	if f.InstancesActive() < 2 {
		t.Fatalf("sustained overload should add instances: %d", f.InstancesActive())
	}
	if f.ColdStarts.Value < 1 {
		t.Fatal("scale-out must pay a cold start without a warm pool")
	}
}

func TestKeepAliveAvoidsColdStart(t *testing.T) {
	sys := MustSystem(Config{
		Nodes: 1, GPUsPerNode: 4,
		NewScaler: func() scaler.Policy { return scaler.NewPredictive() },
	})
	f, err := sys.DeployInference("bert", "BERT-base", InferOpts{Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Force a scale-in then an immediate scale-out: the warm instance
	// must be reused without a cold start.
	sys.Run(2 * sim.Second)
	f.scaleIn(sys.Eng.Now())
	if f.InstancesActive() != 1 {
		t.Fatal("scale-in failed")
	}
	sys.Run(5 * sim.Second)
	f.scaleOut()
	if f.InstancesActive() != 2 {
		t.Fatal("scale-out failed")
	}
	if f.ColdStarts.Value != 0 {
		t.Fatalf("warm reuse still paid %d cold starts", f.ColdStarts.Value)
	}
}

func TestKeepAliveExpiryReleasesGPU(t *testing.T) {
	sys := MustSystem(Config{
		Nodes: 1, GPUsPerNode: 4,
		NewScaler: func() scaler.Policy { return scaler.NewPredictive() },
	})
	f, err := sys.DeployInference("bert", "BERT-base", InferOpts{Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(sim.Second)
	before := sys.Clu.Snapshot().MeanMem
	f.scaleIn(sys.Eng.Now())
	sys.Run(30 * sim.Second) // within TTL: memory still held
	if sys.Clu.Snapshot().MeanMem < before*0.99 {
		t.Fatal("keep-alive should hold memory inside the TTL")
	}
	sys.Run(60 * sim.Second) // beyond TTL
	if sys.Clu.Snapshot().MeanMem >= before*0.99 {
		t.Fatal("expired keep-alive did not release memory")
	}
}

func TestTrainTrainCollocationBeatsExclusivePerGPU(t *testing.T) {
	// Figure 9's shape: two training jobs collocated on one GPU deliver
	// more aggregate samples/s/GPU than one job per GPU.
	exclusive := func() float64 {
		sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 2, Policy: "Exclusive"})
		a, _ := sys.DeployTraining("a", "BERT-base", TrainOpts{Workers: 1, Pin: []int{0}})
		b, _ := sys.DeployTraining("b", "RoBERTa-large", TrainOpts{Workers: 1, Pin: []int{1}})
		sys.Run(30 * sim.Second)
		return (a.Throughput(sys.Eng.Now())/a.Spec.TrainThroughput(1) +
			b.Throughput(sys.Eng.Now())/b.Spec.TrainThroughput(1)) / 2
	}
	collocated := func() float64 {
		sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 1, Policy: "Dilu"})
		a, _ := sys.DeployTraining("a", "BERT-base", TrainOpts{Workers: 1, Pin: []int{0}})
		b, _ := sys.DeployTraining("b", "RoBERTa-large", TrainOpts{Workers: 1, Pin: []int{0}})
		sys.Run(30 * sim.Second)
		return (a.Throughput(sys.Eng.Now())/a.Spec.TrainThroughput(1) +
			b.Throughput(sys.Eng.Now())/b.Spec.TrainThroughput(1)) / 2
	}
	ex, co := exclusive(), collocated()
	// Exclusive: 1.0 normalized per GPU over two GPUs. Collocated: both on
	// one GPU — per-GPU aggregate should exceed 1.4× exclusive's per-GPU.
	perGPUEx := ex * 2 / 2
	perGPUCo := co * 2 / 1
	if perGPUCo < 1.4*perGPUEx {
		t.Fatalf("collocated per-GPU %.2f should be ≥1.4× exclusive %.2f", perGPUCo, perGPUEx)
	}
}

func TestTrainingJobJCTAndRelease(t *testing.T) {
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 2})
	tj, err := sys.DeployTraining("bert-t", "BERT-base", TrainOpts{Workers: 1, TargetIters: 50})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(30 * sim.Second)
	if !tj.Job.Finished() {
		t.Fatal("job should finish 50 iterations in 30s")
	}
	if tj.JCT() <= 0 {
		t.Fatal("JCT missing")
	}
	if sys.Clu.OccupiedCount() != 0 {
		t.Fatalf("finished job must release GPUs, occupied=%d", sys.Clu.OccupiedCount())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, float64) {
		sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 2, Seed: 7})
		f, _ := sys.DeployInference("rob", "RoBERTa-large", InferOpts{
			Arrivals: workload.Gamma{RPS: 30, CV: 3},
		})
		tj, _ := sys.DeployTraining("bert-t", "BERT-base", TrainOpts{Workers: 1})
		sys.Run(30 * sim.Second)
		return f.Served(), tj.Throughput(sys.Eng.Now())
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || math.Abs(t1-t2) > 1e-9 {
		t.Fatalf("non-deterministic: (%d,%v) vs (%d,%v)", s1, t1, s2, t2)
	}
}

func TestVerticalScalingProtectsInference(t *testing.T) {
	// Collocate two training jobs with an inference function on one GPU
	// under Dilu vs Uncontrolled (-VS): without token control the
	// trainings' limit grants crush the inference (the paper's ablation
	// reports a >150% SVR increase); Dilu must hold the violation rate
	// far lower.
	run := func(policy string) (float64, float64) {
		sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 1, Policy: policy, Seed: 3})
		if _, err := sys.DeployTraining("gpt2-t", "GPT2-large", TrainOpts{Workers: 1, Pin: []int{0}}); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.DeployTraining("rob-t", "RoBERTa-large", TrainOpts{Workers: 1, Pin: []int{0}}); err != nil {
			t.Fatal(err)
		}
		f, err := sys.DeployInference("rob", "RoBERTa-large", InferOpts{
			Pin:      []int{0},
			Arrivals: workload.Gamma{RPS: 40, CV: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(60 * sim.Second)
		return f.Rec.ViolationRate(), f.Rec.P95().Millis()
	}
	diluSVR, diluP95 := run("Dilu")
	uncSVR, uncP95 := run("Uncontrolled")
	if diluSVR >= uncSVR && diluP95 >= uncP95 {
		t.Fatalf("Dilu (svr=%.3f p95=%.0f) should beat uncontrolled (svr=%.3f p95=%.0f)",
			diluSVR, diluP95, uncSVR, uncP95)
	}
}

func TestUnknownConfigErrors(t *testing.T) {
	if _, err := NewSystem(Config{Policy: "nope"}); err == nil {
		t.Fatal("bad policy accepted")
	}
	if _, err := NewSystem(Config{Scheduler: "nope"}); err == nil {
		t.Fatal("bad scheduler accepted")
	}
}

func TestGPUSecondsAccounting(t *testing.T) {
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 4})
	_, _ = sys.DeployTraining("t", "BERT-base", TrainOpts{Workers: 2})
	sys.Run(20 * sim.Second)
	used := sys.GPUSecondsUsed()
	// Two GPUs active for ~20s ≈ 40 GPU-seconds (trace starts at t=1s).
	if used < 30 || used > 45 {
		t.Fatalf("GPU-seconds = %.1f, want ~38", used)
	}
}

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

// world is a minimal single-GPU tick loop: instances PreTick, manager
// issues, device executes, instances PostTick. Managers of further GPUs
// (extra) issue and execute after that step.
type world struct {
	eng   *sim.Engine
	dev   *gpu.Device
	mgr   *rckm.Manager
	insts []Ticker
	extra []*rckm.Manager
}

func newWorld(policy rckm.Policy) *world {
	w := &world{eng: sim.NewEngine(), dev: gpu.NewDevice("g0")}
	w.mgr = rckm.NewManager(w.dev, policy, rckm.DefaultConfig())
	w.eng.SetTick(func(now sim.Time) {
		for _, in := range w.insts {
			in.PreTick(now)
		}
		w.mgr.Issue(now)
		w.dev.ExecuteTick()
		for _, in := range w.insts {
			in.PostTick(now)
		}
		for _, m := range w.extra {
			m.Issue(now)
			m.Dev.ExecuteTick()
		}
	})
	return w
}

func (w *world) addStage(t *testing.T, id string, slo bool, memMB, req, lim float64) Stage {
	t.Helper()
	res, err := w.dev.Attach(id, memMB)
	if err != nil {
		t.Fatal(err)
	}
	c := &rckm.Client{ID: id, Res: res, SLOSensitive: slo, Request: req, Limit: lim}
	w.mgr.Register(c)
	return Stage{Res: res, Client: c}
}

func TestInferenceSingleRequestLatency(t *testing.T) {
	spec := model.ByName("BERT-base")
	w := newWorld(rckm.Exclusive{})
	st := w.addStage(t, "i0", true, spec.InferMemMB, 0.3, 0.6)
	rec := metrics.NewLatencyRecorder("bert", spec.SLO)
	inf := NewInference("i0", "bert", spec, 4, []Stage{st}, rec)
	inf.SetActive(true)
	w.insts = append(w.insts, inf)

	inf.Enqueue(Request{ID: 1, Arrive: 0})
	w.eng.Run(200 * sim.Millisecond)

	if rec.Count() != 1 {
		t.Fatalf("served %d, want 1", rec.Count())
	}
	// Full GPU, batch 1: exec ≈ spec time; latency ≈ queueing(≤5ms) + exec.
	wantExec := spec.InferExecTime(1.0, 1).Millis()
	got := rec.Mean().Millis()
	if got < wantExec*0.8 || got > wantExec+6 {
		t.Fatalf("latency = %.2fms, want ~%.2fms", got, wantExec)
	}
}

func TestInferenceBatching(t *testing.T) {
	spec := model.ByName("BERT-base")
	w := newWorld(rckm.Exclusive{})
	st := w.addStage(t, "i0", true, spec.InferMemMB, 0.3, 0.6)
	rec := metrics.NewLatencyRecorder("bert", spec.SLO)
	inf := NewInference("i0", "bert", spec, 8, []Stage{st}, rec)
	inf.SetActive(true)
	w.insts = append(w.insts, inf)

	for i := 0; i < 8; i++ {
		inf.Enqueue(Request{ID: int64(i), Arrive: 0})
	}
	w.eng.Run(sim.Second)
	if rec.Count() != 8 {
		t.Fatalf("served %d, want 8", rec.Count())
	}
	// All eight should ride one batch: total time ≈ one batch-8 execution,
	// far below eight sequential batch-1 executions.
	batch8 := spec.InferExecTime(1.0, 8).Millis()
	seq8 := 8 * spec.InferExecTime(1.0, 1).Millis()
	got := rec.Max().Millis()
	if got > (batch8+seq8)/2 {
		t.Fatalf("max latency %.1fms suggests no batching (batch8=%.1f seq=%.1f)", got, batch8, seq8)
	}
}

func TestInferenceRespectsIBSLimit(t *testing.T) {
	spec := model.ByName("BERT-base")
	w := newWorld(rckm.Exclusive{})
	st := w.addStage(t, "i0", true, spec.InferMemMB, 0.3, 0.6)
	inf := NewInference("i0", "bert", spec, 2, []Stage{st}, nil)
	inf.SetActive(true)
	w.insts = append(w.insts, inf)
	for i := 0; i < 3; i++ {
		inf.Enqueue(Request{ID: int64(i), Arrive: 0})
	}
	w.eng.Step()
	if inf.InFlight() != 2 {
		t.Fatalf("in flight = %d, want IBS=2", inf.InFlight())
	}
	if inf.QueueLen() != 1 {
		t.Fatalf("queued = %d, want 1", inf.QueueLen())
	}
}

func TestInferenceBurstBatching(t *testing.T) {
	// Queue pressure beyond 2×IBS engages adaptive burst batching up to
	// twice the profiled batch size.
	spec := model.ByName("BERT-base")
	w := newWorld(rckm.Exclusive{})
	st := w.addStage(t, "i0", true, spec.InferMemMB, 0.3, 0.6)
	inf := NewInference("i0", "bert", spec, 2, []Stage{st}, nil)
	inf.SetActive(true)
	w.insts = append(w.insts, inf)
	for i := 0; i < 9; i++ {
		inf.Enqueue(Request{ID: int64(i), Arrive: 0})
	}
	w.eng.Step()
	if inf.InFlight() != 4 {
		t.Fatalf("in flight = %d, want burst batch 4", inf.InFlight())
	}
}

func TestInferenceInactiveDoesNotServe(t *testing.T) {
	spec := model.ByName("BERT-base")
	w := newWorld(rckm.Exclusive{})
	st := w.addStage(t, "i0", true, spec.InferMemMB, 0.3, 0.6)
	inf := NewInference("i0", "bert", spec, 4, []Stage{st}, nil)
	w.insts = append(w.insts, inf)
	inf.Enqueue(Request{ID: 1, Arrive: 0})
	w.eng.Run(100 * sim.Millisecond)
	if inf.Served() != 0 {
		t.Fatal("inactive instance served a request")
	}
	if inf.QueueLen() != 1 {
		t.Fatal("queue should hold the request")
	}
}

func TestGenerativeTPOT(t *testing.T) {
	spec := model.ByName("LLaMA2-7B")
	w := newWorld(rckm.Exclusive{})
	st := w.addStage(t, "i0", true, spec.InferMemMB, 0.5, 1.0)
	rec := metrics.NewLatencyRecorder("llama", spec.SLO)
	inf := NewInference("i0", "llama", spec, 1, []Stage{st}, rec)
	inf.SetActive(true)
	w.insts = append(w.insts, inf)
	inf.Enqueue(Request{ID: 1, Arrive: 0})
	w.eng.Run(3 * sim.Second)
	if rec.Count() != 1 {
		t.Fatalf("served %d", rec.Count())
	}
	// TPOT ≈ (prefill + 32·decode)/32 at full GPU.
	want := (spec.PrefillWork + 32*spec.DecodeWork1) / model.BlocksPerSecond / 32 * 1000
	got := rec.Mean().Millis()
	if got < want*0.8 || got > want*1.6 {
		t.Fatalf("TPOT = %.1fms, want ~%.1fms", got, want)
	}
	if inf.stepsObserved != 33 { // 1 prefill + 32 decode steps
		t.Fatalf("steps = %d, want 33", inf.stepsObserved)
	}
}

func TestPipelineStagesShareWork(t *testing.T) {
	spec := model.ByName("LLaMA2-7B")
	w := newWorld(rckm.Exclusive{})
	var stages []Stage
	dev2 := gpu.NewDevice("g1") // second GPU with its own manager
	mgr2 := rckm.NewManager(dev2, rckm.Exclusive{}, rckm.DefaultConfig())
	w.extra = append(w.extra, mgr2)
	st1 := w.addStage(t, "s0", true, spec.InferMemMB/2, 0.5, 1.0)
	res2, _ := dev2.Attach("s1", spec.InferMemMB/2)
	c2 := &rckm.Client{ID: "s1", Res: res2, SLOSensitive: true, Request: 0.5, Limit: 1.0}
	mgr2.Register(c2)
	stages = append(stages, st1, Stage{Res: res2, Client: c2})

	rec := metrics.NewLatencyRecorder("llama", spec.SLO)
	inf := NewInference("i0", "llama", spec, 1, stages, rec)
	inf.SetActive(true)
	w.insts = append(w.insts, inf)
	inf.Enqueue(Request{ID: 1, Arrive: 0})
	w.eng.Run(3 * sim.Second)
	if rec.Count() != 1 {
		t.Fatalf("served %d", rec.Count())
	}
	// Two stages at full GPU each halve per-stage work; TPOT should be
	// well below the single-GPU value.
	single := (spec.PrefillWork + 32*spec.DecodeWork1) / model.BlocksPerSecond / 32 * 1000
	if got := rec.Mean().Millis(); got > single {
		t.Fatalf("2-stage TPOT %.1fms not faster than single %.1fms", got, single)
	}
}

func TestTrainingIterationsAndThroughput(t *testing.T) {
	spec := model.ByName("BERT-base")
	w := newWorld(rckm.Exclusive{})
	st := w.addStage(t, "w0", false, spec.TrainMemMB, 0.4, 0.8)
	tr := NewTraining("t0", "bert-train", spec, []Stage{st})
	tr.SetActive(true)
	w.insts = append(w.insts, tr)
	w.eng.Run(10 * sim.Second)

	// Expected iteration time at full GPU.
	iter := spec.TrainIterTime(1.0).Seconds()
	wantIters := 10.0 / iter
	got := float64(tr.Iterations())
	if math.Abs(got-wantIters)/wantIters > 0.15 {
		t.Fatalf("iterations = %v, want ~%v", got, wantIters)
	}
	thr := tr.Throughput(10 * sim.Second)
	wantThr := spec.TrainThroughput(1.0)
	if math.Abs(thr-wantThr)/wantThr > 0.15 {
		t.Fatalf("throughput = %v, want ~%v", thr, wantThr)
	}
}

func TestTrainingBarrelEffect(t *testing.T) {
	// Two DDP workers where one is throttled: iteration time must follow
	// the slow worker (the lagger of Principle-1).
	spec := model.ByName("BERT-base")
	w := newWorld(rckm.MPS{UseLimit: true})
	fast := w.addStage(t, "w0", false, spec.TrainMemMB, 0.8, 0.8)
	dev2 := gpu.NewDevice("g1")
	mgr2 := rckm.NewManager(dev2, rckm.MPS{UseLimit: true}, rckm.DefaultConfig())
	w.extra = append(w.extra, mgr2)
	res2, _ := dev2.Attach("w1", spec.TrainMemMB)
	c2 := &rckm.Client{ID: "w1", Res: res2, Request: 0.15, Limit: 0.15} // throttled
	mgr2.Register(c2)
	slow := Stage{Res: res2, Client: c2}

	tr := NewTraining("t0", "bert-train", spec, []Stage{fast, slow})
	tr.SetActive(true)
	w.insts = append(w.insts, tr)
	w.eng.Run(20 * sim.Second)

	slowIter := spec.TrainIterTime(0.15)
	fastIter := spec.TrainIterTime(0.8)
	gotIter := tr.MeanIterTime() + spec.TrainSync
	if gotIter < slowIter-10*sim.Millisecond {
		t.Fatalf("iteration %v faster than slow worker %v — no barrier?", gotIter, slowIter)
	}
	if gotIter < fastIter {
		t.Fatalf("iteration %v must exceed fast worker's own %v", gotIter, fastIter)
	}
}

func TestTrainingSyncIdlesGPU(t *testing.T) {
	// GPT2-large: sync is 40% of the iteration; device occupancy over a
	// long window must sit well below 100% even at full grant.
	spec := model.ByName("GPT2-large")
	w := newWorld(rckm.Exclusive{})
	st := w.addStage(t, "w0", false, spec.TrainMemMB, 1, 1)
	tr := NewTraining("t0", "gpt2-train", spec, []Stage{st})
	tr.SetActive(true)
	w.insts = append(w.insts, tr)
	w.eng.Run(30 * sim.Second)
	occ := w.dev.MeanOccupancy()
	if occ > 0.75 {
		t.Fatalf("occupancy %.2f too high — sync idle missing (want ~0.6)", occ)
	}
	if occ < 0.35 {
		t.Fatalf("occupancy %.2f too low", occ)
	}
}

func TestTrainingTargetItersJCT(t *testing.T) {
	spec := model.ByName("BERT-base")
	w := newWorld(rckm.Exclusive{})
	st := w.addStage(t, "w0", false, spec.TrainMemMB, 1, 1)
	tr := NewTraining("t0", "bert-train", spec, []Stage{st})
	tr.TargetIters = 20
	tr.SetActive(true)
	w.insts = append(w.insts, tr)
	w.eng.Run(30 * sim.Second)
	if !tr.Finished() {
		t.Fatal("job did not finish")
	}
	if tr.Iterations() != 20 {
		t.Fatalf("iterations = %d", tr.Iterations())
	}
	want := 20 * spec.TrainIterTime(1.0).Seconds()
	got := (tr.DoneAt - tr.StartedAt).Seconds()
	if math.Abs(got-want)/want > 0.15 {
		t.Fatalf("JCT = %vs, want ~%vs", got, want)
	}
}

func TestCollocatedTrainingUsesInferenceIdleSMs(t *testing.T) {
	// Dilu policy: training collocated with a mostly-idle inference
	// function should achieve near its solo-at-limit throughput.
	specT := model.ByName("BERT-base")
	specI := model.ByName("RoBERTa-large")
	w := newWorld(rckm.Dilu{})
	wst := w.addStage(t, "w0", false, specT.TrainMemMB, 0.4, 0.9)
	ist := w.addStage(t, "i0", true, specI.InferMemMB, 0.3, 0.6)
	tr := NewTraining("t0", "bert-train", specT, []Stage{wst})
	tr.SetActive(true)
	inf := NewInference("i0", "rob-inf", specI, 4, []Stage{ist}, nil)
	inf.SetActive(true)
	w.insts = append(w.insts, tr, inf)
	// One lonely request every 2 seconds.
	for i := 0; i < 5; i++ {
		req := Request{ID: int64(i), Arrive: sim.Time(i) * 2 * sim.Second}
		w.eng.Schedule(req.Arrive, func(sim.Time) { inf.Enqueue(req) })
	}
	w.eng.Run(10 * sim.Second)
	thr := tr.Throughput(10 * sim.Second)
	solo := specT.TrainThroughput(0.9)
	if thr < 0.75*solo {
		t.Fatalf("collocated training throughput %v too far below solo %v", thr, solo)
	}
	if inf.Served() != 5 {
		t.Fatalf("inference served %d, want 5", inf.Served())
	}
}

func TestDropQueue(t *testing.T) {
	spec := model.ByName("BERT-base")
	w := newWorld(rckm.Exclusive{})
	st := w.addStage(t, "i0", true, spec.InferMemMB, 0.3, 0.6)
	inf := NewInference("i0", "bert", spec, 4, []Stage{st}, nil)
	inf.Enqueue(Request{ID: 1, Arrive: 0})
	inf.Enqueue(Request{ID: 2, Arrive: 0})
	dropped := inf.DropQueue()
	if len(dropped) != 2 || inf.QueueLen() != 0 {
		t.Fatalf("dropped %d, queue %d", len(dropped), inf.QueueLen())
	}
}

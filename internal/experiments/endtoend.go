package experiments

import (
	"sync"

	"dilu/internal/core"
	"dilu/internal/report"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// e2eSystems are the Figure 15/16 comparison points, including the three
// ablations.
var e2eSystems = []string{"Exclusive", "INFless+-l", "INFless+-r", "Dilu", "Dilu-RC", "Dilu-WA", "Dilu-VS"}

// e2eResult aggregates one system's end-to-end run.
type e2eResult struct {
	label string
	// svrs holds per-inference-function SLO violation rates (%).
	svrs []float64
	// trainSpeed holds per-job samples/s (finished jobs use their JCT).
	trainSpeed []float64
	maxGPUs    float64
	meanGPUs   float64
	// servedRPS is total completed inference requests per second.
	servedRPS float64
	// trainNorm is Σ per-job throughput normalized by each model's
	// exclusive single-worker rate (so heterogeneous jobs add up).
	trainNorm float64
}

// e2eKey identifies one end-to-end scenario; the meter is deliberately
// not part of the key (it observes, it does not parameterize).
type e2eKey struct {
	scale float64
	seed  int64
}

// e2eEntry caches the scenario results together with their virtual-time
// accounting so cache hits credit the caller's meter exactly what a
// fresh computation would — keeping manifests independent of whether
// Figure 15 or Figure 16 ran (or computed) first.
type e2eEntry struct {
	results []e2eResult
	virtual sim.Duration
	engines int64
}

// e2eSlot is the compute-once cell for one (scale, seed) scenario. A
// panic during compute is captured and replayed to every caller so both
// figure15 and figure16 fail identically instead of one silently
// reading a zero-value entry (sync.Once marks itself done on panic).
type e2eSlot struct {
	once     sync.Once
	entry    e2eEntry
	panicked interface{}
}

var (
	e2eMu    sync.Mutex
	e2eSlots = map[e2eKey]*e2eSlot{}
)

// runEndToEnd executes the §5.4 scenario on every system: four training
// functions submitted at different times (2×2-worker, 2×4-worker
// including an LLM fine-tune) and three inference functions under
// bursty, periodic, and Poisson workloads. Figure 15 and Figure 16
// share one scenario run per (scale, seed); the per-key slot lets the
// parallel harness compute distinct keys (e.g. a seed sweep)
// concurrently while still deduplicating within a key.
func runEndToEnd(opts Options) []e2eResult {
	opts = opts.withDefaults()
	key := e2eKey{scale: opts.Scale, seed: opts.Seed}
	e2eMu.Lock()
	slot, ok := e2eSlots[key]
	if !ok {
		slot = new(e2eSlot)
		e2eSlots[key] = slot
	}
	e2eMu.Unlock()
	slot.once.Do(func() {
		defer func() { slot.panicked = recover() }()
		slot.entry = computeEndToEnd(opts)
	})
	if slot.panicked != nil {
		panic(slot.panicked)
	}
	opts.Meter.AddVirtual(slot.entry.virtual)
	opts.Meter.AddEngines(slot.entry.engines)
	return slot.entry.results
}

func computeEndToEnd(opts Options) e2eEntry {
	// Meter locally so the accounting can be cached and replayed.
	local := new(sim.Meter)
	opts.Meter = local
	dur := opts.dur(600 * sim.Second)
	var out []e2eResult
	for _, label := range e2eSystems {
		sys := mustClusterSystem(label, 5, 4, opts)
		var jobs []*core.TrainingJob
		addJob := func(name, modelName string, workers int, startAt sim.Duration, iters int64) {
			tj, err := sys.DeployTraining(name, modelName, core.TrainOpts{
				Workers: workers, StartAt: startAt, TargetIters: iters,
			})
			if err != nil {
				panic(err)
			}
			jobs = append(jobs, tj)
		}
		scale := opts.Scale
		addJob("bert-train", "BERT-base", 2, 0, int64(3200*scale))
		addJob("resnet-train", "ResNet152", 2, 30*sim.Second, int64(3600*scale))
		addJob("gpt2-train", "GPT2-large", 4, 60*sim.Second, int64(1200*scale))
		addJob("llama-ft", "LLaMA2-7B", 4, 90*sim.Second, int64(900*scale))

		var funcs []*core.Function
		addFn := func(name, modelName string, arr workload.Arrivals) {
			f, err := sys.DeployInference(name, modelName, core.InferOpts{Instances: 1, Arrivals: arr})
			if err != nil {
				panic(err)
			}
			funcs = append(funcs, f)
		}
		addFn("rob-inf", "RoBERTa-large", workload.Bursty{BaseRPS: 25, Scale: 4, BurstDur: 30 * sim.Second, Quiet: 60 * sim.Second})
		addFn("bert-inf", "BERT-base", workload.Periodic{BaseRPS: 90, Amp: 0.8, Period: 150 * sim.Second})
		addFn("vgg-inf", "VGG19", workload.Poisson{RPS: 40})

		sys.Run(dur)

		res := e2eResult{label: label, maxGPUs: sys.GPUSeries.Max(), meanGPUs: sys.GPUSeries.Mean()}
		var served int64
		for _, f := range funcs {
			res.svrs = append(res.svrs, f.Rec.ViolationRate()*100)
			served += f.Served()
		}
		res.servedRPS = float64(served) / dur.Seconds()
		for _, tj := range jobs {
			thr := tj.Throughput(sys.Eng.Now())
			res.trainSpeed = append(res.trainSpeed, thr)
			workers := 1
			if tj.Job != nil {
				workers = len(tj.Job.Workers)
			}
			solo := tj.Spec.TrainThroughput(1.0) * float64(workers)
			if tj.Spec.TrainStages > 1 {
				solo = tj.Spec.TrainThroughput(1.0)
			}
			if solo > 0 {
				res.trainNorm += thr / solo
			}
		}
		out = append(out, res)
	}
	return e2eEntry{results: out, virtual: local.Virtual(), engines: local.Engines()}
}

// Figure15 reproduces the end-to-end comparison and component ablations:
// inference SVR, normalized training JCT, and maximum GPUs used.
func Figure15(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("figure15", "End-to-end performance and ablations (Figure 15)")
	results := runEndToEnd(opts)
	var exclusive e2eResult
	for _, r := range results {
		if r.label == "Exclusive" {
			exclusive = r
		}
	}
	a := rep.AddTable(report.NewTable(
		"Figure 15(a). Inference SLO violation rate (%)",
		"system", "mean SVR", "max SVR"))
	b := rep.AddTable(report.NewTable(
		"Figure 15(b). Training speed (normalized JCT vs Exclusive; lower is better) and GPUs",
		"system", "mean norm JCT", "max norm JCT", "max GPUs"))
	for _, r := range results {
		var mean, max float64
		for _, v := range r.svrs {
			mean += v
			if v > max {
				max = v
			}
		}
		mean /= float64(len(r.svrs))
		a.AddRow(r.label, mean, max)

		var jctMean, jctMax float64
		n := 0
		for i, v := range r.trainSpeed {
			if v <= 0 || exclusive.trainSpeed[i] <= 0 {
				continue
			}
			// JCT ratio ≈ inverse throughput ratio.
			jct := exclusive.trainSpeed[i] / v
			jctMean += jct
			if jct > jctMax {
				jctMax = jct
			}
			n++
		}
		if n > 0 {
			jctMean /= float64(n)
		}
		b.AddRow(r.label, jctMean, jctMax, r.maxGPUs)
	}
	rep.AddNote("paper: Exclusive needs 1.5× Dilu's GPUs; -VS raises mean/max SVR by 158%%/203%%; -RC costs one extra GPU; -WA slightly hurts both")
	return rep
}

// Figure16 reproduces the aggregate throughput comparison: served RPS and
// normalized training throughput per occupied GPU, relative to Exclusive.
func Figure16(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("figure16", "Aggregate throughput per GPU (Figure 16)")
	results := runEndToEnd(opts)
	var exclusive e2eResult
	for _, r := range results {
		if r.label == "Exclusive" {
			exclusive = r
		}
	}
	exInf := exclusive.servedRPS / maxf(exclusive.meanGPUs, 1e-9)
	exTrain := exclusive.trainNorm / maxf(exclusive.meanGPUs, 1e-9)
	t := rep.AddTable(report.NewTable(
		"Figure 16. Aggregate throughput per occupied GPU (Exclusive = 1.0)",
		"system", "inference RPS/GPU", "rel", "train norm/GPU", "rel", "mean GPUs"))
	for _, r := range results {
		inf := r.servedRPS / maxf(r.meanGPUs, 1e-9)
		tr := r.trainNorm / maxf(r.meanGPUs, 1e-9)
		t.AddRow(r.label, inf, inf/maxf(exInf, 1e-9), tr, tr/maxf(exTrain, 1e-9), r.meanGPUs)
	}
	rep.AddNote("paper: Dilu reaches 3.8×/2.8×/2.3× the inference aggregate of Exclusive/INFless+-l/INFless+-r and 2.5×/2.1×/1.2× in training")
	return rep
}

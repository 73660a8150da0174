package experiments

import (
	"dilu/internal/core"
	"dilu/internal/metrics"
	"dilu/internal/model"
	"dilu/internal/profiler"
	"dilu/internal/report"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// Figure2 reproduces the paper's motivating observations (Fig. 2(a,b)):
// GPU over-provisioning under static allocation, GPU idling of
// distributed training, and keep-alive waste.
func Figure2(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("figure2", "Observations: fragmented GPU resourcing in serverless")

	// Observation-1: INFless-style static allocation for RoBERTa-large
	// under low load: the quota is pinned while utilization idles.
	{
		sys := systemFor("MPS-r", 1, 1, opts)
		prof := profiler.INFless(model.ByName("RoBERTa-large"))
		p := profiler.For(model.ByName("RoBERTa-large"), profiler.RoleInference)
		p.SMReq, p.SMLim, p.IBS = prof.Request, prof.Request, prof.IBS
		_, err := sys.DeployInference("rob-inf", "RoBERTa-large", core.InferOpts{
			Pin: []int{0}, Profile: &p,
			Arrivals: workload.Poisson{RPS: 4},
		})
		if err != nil {
			panic(err)
		}
		dur := opts.dur(120 * sim.Second)
		util := metrics.NewSeries("roberta-sm-used")
		runSampled(sys, dur, sim.TickPeriod, func(now sim.Time) {
			util.Add(now, sys.Clu.GPUs()[0].Dev.LastOccupancy())
		})
		t := rep.AddTable(report.NewTable(
			"Figure 2(a). Static allocation vs actual use (RoBERTa-large inference, low load)",
			"metric", "value"))
		t.AddRow("allocated SMR (INFless)", prof.Request)
		t.AddRow("mean SM used", util.Mean())
		t.AddRow("overprovision factor", prof.Request/maxf(util.Mean(), 1e-9))
	}

	// Observation-2: 4-worker GPT2-large DDP idles >40% in gradient sync;
	// LLaMA2-7B pipeline fine-tuning workers idle ~20%.
	{
		sys := systemFor("Exclusive", 1, 4, opts)
		_, err := sys.DeployTraining("gpt2-ddp", "GPT2-large", core.TrainOpts{Workers: 4, Pin: []int{0, 1, 2, 3}})
		if err != nil {
			panic(err)
		}
		sys.Run(opts.dur(60 * sim.Second))
		var occ float64
		for _, g := range sys.Clu.GPUs() {
			occ += g.Dev.MeanOccupancy()
		}
		occ /= 4
		t := rep.AddTable(report.NewTable(
			"Figure 2(a/b). Distributed training GPU idling",
			"job", "mean SM busy", "idle fraction"))
		t.AddRow("GPT2-large 4-worker DDP", occ, 1-occ)

		sys2 := systemFor("Exclusive", 1, 4, opts)
		_, err = sys2.DeployTraining("llama-ft", "LLaMA2-7B", core.TrainOpts{Workers: 4, Pin: []int{0, 1, 2, 3}})
		if err != nil {
			panic(err)
		}
		sys2.Run(opts.dur(60 * sim.Second))
		var occ2 float64
		for _, g := range sys2.Clu.GPUs() {
			occ2 += g.Dev.MeanOccupancy()
		}
		occ2 /= 4
		t.AddRow("LLaMA2-7B pipeline fine-tune", occ2, 1-occ2)
	}

	// Observation-3: keep-alive instances on a sporadic trace serve a
	// handful of requests while holding resources almost all the time.
	{
		sys := systemFor("MPS-r", 1, 1, opts)
		f, err := sys.DeployInference("sporadic-fn", "BERT-base", core.InferOpts{
			Instances: 2, Pin: []int{0},
			Arrivals: workload.Sporadic{ClusterRPS: 0.4, ClusterDur: 10 * sim.Second, IdleMean: 40 * sim.Second},
		})
		if err != nil {
			panic(err)
		}
		dur := opts.dur(100 * sim.Second)
		busy := metrics.NewSeries("busy")
		runSampled(sys, dur, sim.TickPeriod, func(now sim.Time) {
			if sys.Clu.GPUs()[0].Dev.LastOccupancy() > 0.01 {
				busy.Add(now, 1)
			} else {
				busy.Add(now, 0)
			}
		})
		t := rep.AddTable(report.NewTable(
			"Figure 2(a). Keep-alive waste on a sporadic trace",
			"metric", "value"))
		t.AddRow("requests served", float64(f.Served()))
		t.AddRow("requests per 50s of lifetime", float64(f.Served())/dur.Seconds()*50)
		t.AddRow("fraction of time GPU busy", busy.Mean())
		t.AddRow("time-dimension waste", 1-busy.Mean())
	}

	// Observation-1b: spatial view — per-model exclusive allocation vs
	// actual mean occupancy.
	{
		t := rep.AddTable(report.NewTable(
			"Figure 2(b). Exclusive allocation vs mean occupancy (inference, moderate load)",
			"model", "allocated", "mean SM used", "mem used frac"))
		for _, name := range []string{"ResNet152", "BERT-base", "RoBERTa-large", "GPT2-large"} {
			sys := systemFor("Exclusive", 1, 1, opts)
			spec := model.ByName(name)
			rps := 0.5 * spec.InferThroughput(1.0, 1)
			_, err := sys.DeployInference(name, name, core.InferOpts{
				Pin: []int{0}, Arrivals: workload.Poisson{RPS: rps},
			})
			if err != nil {
				panic(err)
			}
			sys.Run(opts.dur(40 * sim.Second))
			g := sys.Clu.GPUs()[0]
			t.AddRow(name, 1.0, g.Dev.MeanOccupancy(), g.Dev.MemUsedMB()/g.Dev.MemoryMB)
		}
	}
	return rep
}

// Figure2cd reproduces the preliminary co-scaling verification: Exclusive
// on 4 GPUs (3 BERT-base DDP workers + 1 RoBERTa-large inference) versus
// collocated on 3 GPUs, across an RPS sweep.
func Figure2cd(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("figure2cd", "Toy co-scaling verification (Fig. 2(c,d))")
	t := rep.AddTable(report.NewTable(
		"Figure 2(c,d). Exclusive (4 GPUs) vs co-scaling (3 GPUs)",
		"RPS", "excl p95 ms", "co p95 ms", "excl inf rps", "co inf rps",
		"excl train thr", "co train thr", "train ratio"))
	dur := opts.dur(60 * sim.Second)
	for _, rps := range []float64{32, 64, 128, 256, 512} {
		run := func(collocate bool) (p95, served, train float64) {
			var sys *core.System
			var pinI []int
			instances := 1
			if collocate {
				sys = systemFor("Dilu", 1, 3, opts)
				pinI = []int{0, 1, 2}
				instances = 3
			} else {
				sys = systemFor("Exclusive", 1, 4, opts)
				pinI = []int{3}
			}
			tj, err := sys.DeployTraining("bert-t", "BERT-base", core.TrainOpts{Workers: 3, Pin: []int{0, 1, 2}})
			if err != nil {
				panic(err)
			}
			f, err := sys.DeployInference("rob", "RoBERTa-large", core.InferOpts{
				Instances: instances, Pin: pinI,
				Arrivals: workload.Poisson{RPS: rps},
			})
			if err != nil {
				panic(err)
			}
			sys.Run(dur)
			return f.Rec.P95().Millis(), float64(f.Served()) / dur.Seconds(), tj.Throughput(sys.Eng.Now())
		}
		ep95, eServed, eTrain := run(false)
		cp95, cServed, cTrain := run(true)
		t.AddRow(rps, ep95, cp95, eServed, cServed, eTrain, cTrain, cTrain/maxf(eTrain, 1e-9))
	}
	rep.AddNote("paper: +46%% inference throughput and −5.2%% training at RPS=256 on 25%% fewer GPUs")
	return rep
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

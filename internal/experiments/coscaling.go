package experiments

import (
	"dilu/internal/core"
	"dilu/internal/metrics"
	"dilu/internal/report"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// Figure12 reproduces the co-scaling trace analysis: offered RPS,
// instance count, and per-window SLO violation rate over a bursty trace
// under the full Dilu stack.
func Figure12(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("figure12", "Co-scaling trace analysis (Figure 12)")
	sys := mustClusterSystem("Dilu", 2, 4, opts)
	dur := opts.dur(600 * sim.Second)
	f, err := sys.DeployInference("rob", "RoBERTa-large", core.InferOpts{
		Instances: 1,
		Arrivals:  workload.Bursty{BaseRPS: 30, Scale: 4, BurstDur: 40 * sim.Second, Quiet: 30 * sim.Second},
	})
	if err != nil {
		panic(err)
	}
	// Windowed SVR: violations per 10 s window.
	svr := metrics.NewSeries("windowed-svr")
	var lastCount, lastViol int
	runSampled(sys, dur, 10*sim.Second, func(now sim.Time) {
		count, viol := f.Rec.Count(), f.Rec.Violations()
		dc, dv := count-lastCount, viol-lastViol
		lastCount, lastViol = count, viol
		if dc > 0 {
			svr.Add(now, float64(dv)/float64(dc)*100)
		} else {
			svr.Add(now, 0)
		}
	})
	rep.AddSeries(f.RPSTrace.Downsample(10 * sim.Second))
	rep.AddSeries(f.InstTrace.Downsample(10 * sim.Second))
	rep.AddSeries(svr)
	t := rep.AddTable(report.NewTable(
		"Figure 12. Co-scaling summary",
		"metric", "value"))
	t.AddRow("requests served", float64(f.Served()))
	t.AddRow("overall SVR %", f.Rec.ViolationRate()*100)
	t.AddRow("cold starts", float64(f.ColdStarts.Value))
	t.AddRow("peak instances", f.InstTrace.Max())
	t.AddRow("mean instances", f.InstTrace.Mean())
	rep.AddNote("fast scale-up absorbs the surge while new instances launch (instance count rises shortly after each burst)")
	return rep
}

// table3Trace describes one Azure-style trace row of Table 3.
type table3Trace struct {
	name string
	arr  func() workload.Arrivals
}

func table3Traces() []table3Trace {
	return []table3Trace{
		// Burst cadence matters: the quiet gaps (≈28 s) are shorter than
		// Dilu's 40-sample scale-in window, so Dilu retains standing
		// capacity across bursts while eager baselines churn.
		{"Bursty", func() workload.Arrivals {
			return workload.Bursty{BaseRPS: 25, Scale: 6, BurstDur: 25 * sim.Second, Quiet: 28 * sim.Second}
		}},
		{"Periodic", func() workload.Arrivals {
			return workload.Periodic{BaseRPS: 70, Amp: 0.9, Period: 60 * sim.Second}
		}},
		{"Sporadic", func() workload.Arrivals {
			return workload.Sporadic{ClusterRPS: 40, ClusterDur: 20 * sim.Second, IdleMean: 80 * sim.Second}
		}},
	}
}

// Table3 reproduces the horizontal scaling comparison: cold start counts
// (CSC), SLO violation rate (SVR) and saved GPU time (SGT) relative to
// Dilu for the three Azure trace classes.
func Table3(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("table3", "Horizontal scaling performance (Table 3)")
	dur := opts.dur(600 * sim.Second)
	systems := []string{"FaST-GS+", "INFless+", "Dilu"}
	t := rep.AddTable(report.NewTable(
		"Table 3. CSC / SVR / SGT by trace and system",
		"trace", "system", "CSC", "SVR %", "GPU-seconds", "SGT vs Dilu (s)"))
	for _, tr := range table3Traces() {
		type result struct {
			csc  int64
			svr  float64
			gpuS float64
		}
		results := map[string]result{}
		for _, sysName := range systems {
			sys := mustClusterSystem(sysName, 2, 4, opts)
			// Background training tenants make the cluster multi-tenant:
			// the co-scaling headroom has to be borrowed from collocated
			// jobs, which is where static partitions fall behind.
			if _, err := sys.DeployTraining("bg-bert", "BERT-base", core.TrainOpts{Workers: 2}); err != nil {
				panic(err)
			}
			f, err := sys.DeployInference("rob", "RoBERTa-large", core.InferOpts{
				Instances: 1, Arrivals: tr.arr(),
			})
			if err != nil {
				panic(err)
			}
			sys.Run(dur)
			results[sysName] = result{
				csc:  f.ColdStarts.Value,
				svr:  f.Rec.ViolationRate() * 100,
				gpuS: sys.GPUSecondsUsed(),
			}
		}
		dilu := results["Dilu"]
		for _, sysName := range systems {
			r := results[sysName]
			sgt := r.gpuS - dilu.gpuS
			sgtCell := interface{}(sgt)
			if sysName == "Dilu" {
				sgtCell = "-"
			}
			t.AddRow(tr.name, sysName, float64(r.csc), r.svr, r.gpuS, sgtCell)
		}
	}
	rep.AddNote("paper: Dilu reaches the lowest CSC (7/11/1) and SVR (1.79/9.85/2.33%%), saving hundreds of GPU-seconds vs both baselines")
	return rep
}

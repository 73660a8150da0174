package experiments

import (
	"fmt"

	"dilu/internal/core"
	"dilu/internal/metrics"
	"dilu/internal/report"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// kernelTraceRun collocates an inference function with a training worker
// on one GPU and records the per-second normalized inference kernel
// ratio (inference blocks / total blocks) plus cumulative totals.
func kernelTraceRun(policy, infModel, trainModel string, arr workload.Arrivals, dur sim.Duration, opts Options) (ratio, total, rps *metrics.Series) {
	sys := systemFor(policy, 1, 1, opts)
	_, err := sys.DeployTraining("t", trainModel, core.TrainOpts{Workers: 1, Pin: []int{0}})
	if err != nil {
		panic(err)
	}
	f, err := sys.DeployInference("i", infModel, core.InferOpts{Pin: []int{0}, Arrivals: arr})
	if err != nil {
		panic(err)
	}
	ratio = metrics.NewSeries(policy + "/inf-kernel-ratio")
	total = metrics.NewSeries(policy + "/total-kernels")
	dev := sys.Clu.GPUs()[0].Dev
	var lastInf, lastTotal float64
	runSampled(sys, dur, sim.Second, func(now sim.Time) {
		var inf, tot float64
		for _, r := range dev.Residents() {
			tot += r.TotalLaunched()
			if r.ID[0] == 'i' { // inference placements are named "i-..."
				inf += r.TotalLaunched()
			}
		}
		dInf, dTot := inf-lastInf, tot-lastTotal
		lastInf, lastTotal = inf, tot
		if dTot > 0 {
			ratio.Add(now, dInf/dTot)
		} else {
			ratio.Add(now, 0)
		}
		total.Add(now, tot)
	})
	return ratio, total, f.RPSTrace
}

// Figure13 reproduces the kernel issuing traces: case-1 low inference
// load, case-2 fluctuating (Gamma CV=5) load, comparing Dilu's adaptive
// issuing against static MPS-r.
func Figure13(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("figure13", "Kernel issuing traces (Figure 13)")
	dur := opts.dur(50 * sim.Second)

	// Case-1: low inference workload (~10 req/s) — Dilu should keep the
	// inference kernel ratio low, leaving SMs to training.
	arr1 := workload.Poisson{RPS: 10}
	rDilu, _, rpsTrace := kernelTraceRun("Dilu", "RoBERTa-large", "BERT-base", arr1, dur, opts)
	rMPS, _, _ := kernelTraceRun("MPS-r", "RoBERTa-large", "BERT-base", arr1, dur, opts)
	rep.AddSeries(rpsTrace)
	rep.AddSeries(rDilu)
	rep.AddSeries(rMPS)
	t := rep.AddTable(report.NewTable(
		"Figure 13(a). Case-1 low load: mean inference kernel ratio",
		"system", "mean ratio"))
	t.AddRow("Dilu", rDilu.Mean())
	t.AddRow("MPS-r", rMPS.Mean())

	// Case-2: fluctuating load (CV=5): Dilu should issue MORE tokens than
	// MPS-r during bursts.
	arr2 := workload.Gamma{RPS: 48, CV: 5}
	fDilu, _, _ := kernelTraceRun("Dilu", "GPT2-large", "RoBERTa-large", arr2, dur, opts)
	fMPS, _, _ := kernelTraceRun("MPS-r", "GPT2-large", "RoBERTa-large", arr2, dur, opts)
	t2 := rep.AddTable(report.NewTable(
		"Figure 13(b). Case-2 fluctuating load: inference kernel ratio",
		"system", "mean ratio", "peak ratio"))
	t2.AddRow("Dilu", fDilu.Mean(), fDilu.Max())
	t2.AddRow("MPS-r", fMPS.Mean(), fMPS.Max())
	rep.AddNote("paper: Dilu keeps a low inference ratio at low load (training throughput +15%% vs MPS-r) and issues more tokens than MPS-r under fluctuation")
	return rep
}

// Figure14 reproduces the total kernel-count comparison for case-1,
// adding the Exclusive train-only / inference-only references.
func Figure14(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("figure14", "Total kernel counts (Figure 14)")
	dur := opts.dur(50 * sim.Second)
	arr := workload.Poisson{RPS: 10}
	_, tDilu, _ := kernelTraceRun("Dilu", "RoBERTa-large", "BERT-base", arr, dur, opts)
	_, tMPS, _ := kernelTraceRun("MPS-r", "RoBERTa-large", "BERT-base", arr, dur, opts)

	// Exclusive references: a GPU running only the training job and a GPU
	// running only the inference function.
	exclOnly := func(train bool) *metrics.Series {
		sys := systemFor("Exclusive", 1, 1, opts)
		if train {
			if _, err := sys.DeployTraining("t", "BERT-base", core.TrainOpts{Workers: 1, Pin: []int{0}}); err != nil {
				panic(err)
			}
		} else {
			if _, err := sys.DeployInference("i", "RoBERTa-large", core.InferOpts{Pin: []int{0}, Arrivals: arr}); err != nil {
				panic(err)
			}
		}
		s := metrics.NewSeries(fmt.Sprintf("Exclusive-train=%v/total-kernels", train))
		dev := sys.Clu.GPUs()[0].Dev
		runSampled(sys, dur, sim.Second, func(now sim.Time) {
			s.Add(now, dev.TotalExecuted())
		})
		return s
	}
	exTrain := exclOnly(true)
	exInf := exclOnly(false)
	rep.AddSeries(tDilu)
	rep.AddSeries(tMPS)
	rep.AddSeries(exTrain)
	rep.AddSeries(exInf)
	t := rep.AddTable(report.NewTable(
		"Figure 14. Final cumulative kernel blocks (higher = better GPU use)",
		"trace", "total blocks"))
	t.AddRow("Dilu (collocated)", lastVal(tDilu))
	t.AddRow("MPS-r (collocated)", lastVal(tMPS))
	t.AddRow("Exclusive-train", lastVal(exTrain))
	t.AddRow("Exclusive-inf", lastVal(exInf))
	rep.AddNote("paper: the Dilu trace keeps the highest total kernel counts (highest GPU utilization)")
	return rep
}

func lastVal(s *metrics.Series) float64 {
	if s.Len() == 0 {
		return 0
	}
	return s.Points[s.Len()-1].Value
}

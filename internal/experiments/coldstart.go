package experiments

import (
	"fmt"

	"dilu/internal/core"
	"dilu/internal/metrics"
	"dilu/internal/model"
	"dilu/internal/profiler"
	"dilu/internal/report"
	"dilu/internal/scaler"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// Cold-start drivers: the staged cold-start model (image init → model
// parameter load → kernel JIT), node-local kernel-cache warm pools, and
// predictive prewarming. Both scenarios force repeated scale-to-zero-ish
// cycles (Dilu's TTL-0 scaler tears warm pools down immediately) so the
// relaunch path is actually exercised.

// coldStartBlock pulls the cold-start roll-up out of a summary, failing
// loudly when an arm that cold-launched did not produce one.
func coldStartBlock(arm string, sum *metrics.SLOSummary) *metrics.ColdStartSLO {
	if sum.ColdStart == nil {
		panic(fmt.Sprintf("coldstart: arm %q missing cold_start block from SLO summary", arm))
	}
	return sum.ColdStart
}

// squareWave is a deterministic on/off arrival rate: `burst` seconds at
// high RPS then `quiet` seconds at low RPS, repeating. Unlike
// workload.Bursty the burst windows are fixed, so every arm sees the
// same scale-out/scale-in cadence and cold-relaunch count.
func squareWave(label string, high, low float64, burst, quiet sim.Duration) workload.RateFunc {
	period := burst + quiet
	return workload.RateFunc{
		Label: label,
		Peak:  high,
		RPS: func(t sim.Time) float64 {
			if t%period < burst {
				return high
			}
			return low
		},
	}
}

// ColdStartStages compares two arms on identical bursty load, both
// attributing each violation to the launch stage on its critical path
// (warm queueing split out):
//
//   - no-cache: every cold launch pays the full staged cold start;
//   - cache: kernel-cache hits skip the JIT stage on relaunch (GKM warm
//     pools) and the scheduler breaks placement ties toward cache-warm
//     nodes.
//
// The bursty square wave drives the Dilu scaler through repeated
// scale-out → scale-in (TTL 0 → teardown) → cold-relaunch cycles, so
// the cache arm accumulates hits and its mean effective cold start
// drops by the JIT stage (0.5 s).
func ColdStartStages(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("coldstart_stages",
		"Staged cold starts: per-stage attribution and kernel-cache warm pools (extra)")
	dur := opts.dur(600 * sim.Second)

	// One JIT-dominant model (ResNet152: 0.5 s JIT dwarfs its 0.15 s
	// parameter load) and one load-dominant model (GPT2-large: ~2 s
	// parameter load), so every stage of the decomposition can win a
	// violating request's critical path.
	modelNames := []string{"ResNet152", "GPT2-large"}
	for _, m := range modelNames {
		st := model.ByName(m).ColdStartStages()
		rep.AddNote("%s cold start %.0f ms = image init %.0f + model load %.0f + kernel JIT %.0f",
			m, st.Total().Millis(), st.ImageInit.Millis(), st.ModelLoad.Millis(), st.KernelJIT.Millis())
	}

	arms := []struct {
		name  string
		cache bool
	}{
		{"no-cache", false},
		{"cache", true},
	}

	timing := rep.AddTable(report.NewTable(
		"Cold-start timing by arm (cache hits skip the JIT stage)",
		"arm", "reqs", "cold launches", "kcache hit", "kcache miss", "mean cold ms", "goodput rps", "p99 ms"))
	attr := rep.AddTable(report.NewTable(
		"Violation attribution by arm",
		"arm", "viol", "cold viol", "image init", "model load", "kernel jit", "warm queue", "SVR %"))

	for _, arm := range arms {
		cfg := core.Config{
			Nodes: 2, GPUsPerNode: 2, Seed: opts.Seed, Meter: opts.Meter,
			Policy: "Dilu", Scheduler: "Dilu",
			NewScaler: func() scaler.Policy {
				// Fast reactions so several teardown/relaunch cycles fit
				// the horizon: out after 3 s over capacity, in after 5 s
				// under — still TTL 0, the Dilu teardown discipline.
				return scaler.NewDilu(scaler.DiluConfig{Window: 10, PhiOut: 3, PhiIn: 5})
			},
			KernelCache: arm.cache,
		}
		sys := core.MustSystem(cfg)
		// StartCold: the deploy itself is a cold start (serverless
		// semantics), so the first burst's requests queue behind the
		// staged launch and get stage-attributed. Bursts
		// at 3× one instance's capacity force scale-out within a few
		// samples; quiet phases at 0.2× force scale-in, and TTL-0
		// teardown makes the next burst pay a fresh cold start.
		for _, m := range modelNames {
			prof := profiler.For(model.ByName(m), profiler.RoleInference)
			wave := squareWave("burst3x", 3*prof.ServingRPS, 0.2*prof.ServingRPS,
				6*sim.Second, 9*sim.Second)
			if _, err := sys.DeployInference("fn-"+m, m, core.InferOpts{
				Instances: 1, StartCold: true, Arrivals: wave,
			}); err != nil {
				panic(err)
			}
		}
		sys.Run(dur)
		sum := sys.SLOSummary()

		var p99 float64
		for _, fs := range sum.Funcs {
			if fs.P99Millis > p99 {
				p99 = fs.P99Millis
			}
		}
		c := coldStartBlock(arm.name, sum)
		timing.AddRow(arm.name, float64(sum.Requests), float64(c.ColdLaunches),
			float64(c.KernelCacheHits), float64(c.KernelCacheMisses),
			c.MeanColdMillis(), sum.GoodputRPS, p99)
		attr.AddRow(arm.name, float64(sum.Violations), float64(sum.ColdStartViolations),
			stageViol(sum, metrics.ColdImageInit), stageViol(sum, metrics.ColdModelLoad),
			stageViol(sum, metrics.ColdKernelJIT), warmQueueViol(sum),
			sum.ViolationRate()*100)
		if arm.cache {
			rep.SetSLO(sum)
			rep.AddNote("cache: %d/%d cold launches hit the kernel cache, mean effective cold start %.0f ms",
				c.KernelCacheHits, c.KernelCacheHits+c.KernelCacheMisses, c.MeanColdMillis())
		}
	}
	return rep
}

// stageViol sums one stage's violation count over the summary's funcs.
func stageViol(sum *metrics.SLOSummary, st metrics.ColdStage) float64 {
	var n int64
	for _, fs := range sum.Funcs {
		switch st {
		case metrics.ColdImageInit:
			n += fs.ImageInitViolations
		case metrics.ColdModelLoad:
			n += fs.ModelLoadViolations
		case metrics.ColdKernelJIT:
			n += fs.KernelJITViolations
		}
	}
	return float64(n)
}

// warmQueueViol sums warm-queue violations over the summary's funcs.
func warmQueueViol(sum *metrics.SLOSummary) float64 {
	var n int64
	for _, fs := range sum.Funcs {
		n += fs.WarmQueueViolations
	}
	return float64(n)
}

// PrewarmPolicy compares reactive scaling against rate-trend predictive
// prewarming on an identical pre-generated ramp workload: three
// functions whose arrival rate climbs from 0.6× to 3× one instance's
// capacity over the horizon. The reactive arm pays every scale-out cold
// start on the request path (φ_out samples of overload, then the full
// staged cold start, while the queue grows); the prewarm arm watches
// the per-function RPS trend and launches ahead of the capacity
// crossing, charging the cold start off the request path. Neither arm
// has kernel caches, so the p99/goodput delta isolates prewarming.
func PrewarmPolicy(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("prewarm_policy",
		"Predictive prewarming vs reactive scaling on a demand ramp (extra)")
	dur := opts.dur(600 * sim.Second)

	models := []string{"ResNet152", "VGG19", "BERT-base"}

	// Pre-generate every function's arrivals once so both arms replay
	// byte-identical load (the tenant_mix discipline): the comparison is
	// the policy, never the draw.
	rng := sim.NewRNG(opts.Seed)
	loads := make([]workload.Times, len(models))
	for i, m := range models {
		cap := profiler.For(model.ByName(m), profiler.RoleInference).ServingRPS
		// 0.15× → 3× capacity over the horizon. Starting far under one
		// instance's capacity keeps the initial cold-start cohort well
		// below the p99 tail (a fraction of 1% of the function's
		// requests), so the tail reflects how each arm handles the ramp,
		// not the deploy.
		ramp := workload.RateFunc{
			Label: "ramp",
			Peak:  3 * cap,
			RPS: func(t sim.Time) float64 {
				frac := float64(t) / float64(dur)
				return (0.15 + 2.85*frac) * cap
			},
		}
		loads[i] = workload.Times{Label: "ramp/" + m, T: workload.Take(ramp, rng, dur)}
	}

	arms := []struct {
		name    string
		prewarm *core.PrewarmConfig
	}{
		{"reactive", nil},
		// Headroom 1.3 targets ~77% utilization: prewarming at exactly
		// predicted/capacity would run instances saturated and queueing
		// would eat the latency the early launches bought.
		{"prewarm", &core.PrewarmConfig{Headroom: 1.3}},
	}

	perFunc := rep.AddTable(report.NewTable(
		"Ramp: per-function tail latency by arm",
		"arm", "function", "reqs", "SVR %", "cold viol", "p99 ms", "p99 ok"))
	agg := rep.AddTable(report.NewTable(
		"Ramp: aggregate SLO attainment by arm",
		"arm", "reqs", "SVR %", "goodput rps", "p99 attain %", "prewarm launches", "cold launches", "mean cold ms"))

	for _, arm := range arms {
		sys := core.MustSystem(core.Config{
			Nodes: 2, GPUsPerNode: 4, Seed: opts.Seed, Meter: opts.Meter,
			Policy: "Dilu", Scheduler: "Dilu",
			// The reactive path is the paper's own lazy scaler (φ_out 20
			// seconds of sustained overload before scale-out, TTL 0) —
			// the configuration whose ramp-lag prewarming exists to hide.
			NewScaler: func() scaler.Policy {
				return scaler.NewDilu(scaler.DiluConfig{})
			},
			Prewarm: arm.prewarm,
		})
		for i, m := range models {
			// A 300 ms interactive target: loose enough that a
			// well-provisioned arm attains it at p99 through the ramp,
			// tight enough that 20 s of scale-out lag cannot.
			if _, err := sys.DeployInference(fmt.Sprintf("fn-%s", m), m, core.InferOpts{
				Instances: 1, StartCold: true, Arrivals: loads[i],
				SLO: 300 * sim.Millisecond,
			}); err != nil {
				panic(err)
			}
		}
		sys.Run(dur)
		sum := sys.SLOSummary()
		c := coldStartBlock(arm.name, sum)

		for _, fs := range sum.Funcs {
			perFunc.AddRow(arm.name, fs.Func, float64(fs.Requests),
				fs.ViolationRate()*100, float64(fs.ColdStartViolations),
				fs.P99Millis, boolCell(fs.AttainedP99))
		}
		agg.AddRow(arm.name, float64(sum.Requests), sum.ViolationRate()*100,
			sum.GoodputRPS, sum.P99Attainment*100,
			float64(c.PrewarmLaunches), float64(c.ColdLaunches), c.MeanColdMillis())
		if arm.prewarm != nil {
			rep.SetSLO(sum)
			rep.AddNote("prewarm arm: %d prewarm launches of %d cold launches, p99 attainment %.0f%%",
				c.PrewarmLaunches, c.ColdLaunches, sum.P99Attainment*100)
		}
	}
	return rep
}

// boolCell renders a boolean as a yes/no table cell (the slo_sweep
// convention).
func boolCell(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

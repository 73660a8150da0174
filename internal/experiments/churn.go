package experiments

import (
	"fmt"

	"dilu/internal/cluster"
	"dilu/internal/core"
	"dilu/internal/report"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// This file holds the fleet-disturbance scenarios the paper's fixed,
// homogeneous testbed never exercises: mixed GPU generations
// (hetero_mix, the heterogeneity dimension HAS-GPU's allocator prices
// in), abrupt failure waves (churn_recovery), and planned rolling
// drains (rolling_drain, the fragmented churning clusters FlexPipe
// targets). Introspective elasticity's claim — requests/limits plus
// RCKM arbitration absorb disturbance without cold-start storms — is
// most interesting when the cluster itself is the disturbance.

// heteroClasses is the 70/30 big/small fleet of the heterogeneous §5.5
// variant: 70% baseline A100-40GB-class devices and 30% half-capacity
// 24 GB devices (an A30-class generation).
func heteroClasses() []cluster.GPUClass {
	return []cluster.GPUClass{
		{Name: "big", Capacity: 1.0, MemCapMB: 40 * 1024, Weight: 0.7},
		{Name: "small", Capacity: 0.5, MemCapMB: 24 * 1024, Weight: 0.3},
	}
}

// HeteroMix replays the §5.5 3,200-instance mix on a 1,000-node fleet
// mixing GPU generations 70/30 — the Figure-17 fragmentation comparison
// with capacity-normalized scheduling. Cost is reported both in raw
// GPU-hours and capacity-weighted hours (a half-capacity device prices
// at half a baseline one); the per-class occupancy split shows whether
// a scheduler parks work on small devices or burns big ones.
func HeteroMix(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("hetero_mix", "Heterogeneous fleet placement (70/30 big/small GPUs, extra)")
	horizon := 3600 * sim.Second
	mix := largeScaleMix(3200, horizon, sim.NewRNG(opts.Seed))
	t := rep.AddTable(report.NewTable(
		"Heterogeneous mix. Occupancy, fragmentation and capacity-weighted cost",
		"scheduler", "placed", "peak GPUs", "SM frag", "mem frag",
		"GPU-hours", "cap-hours", "cost vs Exclusive", "occ big", "occ small"))
	var exclusiveCapH float64
	for _, name := range figure17Schedulers {
		r := runLargeScale(schedulerByName(name), mix, horizon, cluster.Config{
			Nodes: 1000, GPUsPerNode: 4, Classes: heteroClasses(),
		})
		opts.Meter.AddVirtual(horizon)
		capH := r.capSeconds / 3600
		if name == "Exclusive" {
			exclusiveCapH = capH
		}
		var occBig, occSmall int
		for _, cs := range r.classes {
			switch cs.Name {
			case "big":
				occBig = cs.Occupied
			case "small":
				occSmall = cs.Occupied
			}
		}
		t.AddRow(name, r.placed, r.occ.Max(), r.stats.SMFrag, r.stats.MemFrag,
			r.gpuSeconds/3600, capH, capH/maxf(exclusiveCapH, 1e-9), occBig, occSmall)
		rep.AddSeries(r.occ.Downsample(120 * sim.Second))
	}
	rep.AddNote("normalized utilization keeps the worst/best-fit walks exact on mixed fleets; the cost ordering of Figure 17 must survive heterogeneity")
	return rep
}

// churnAggTable is the per-system table the churn scenarios share: SLO
// accounting plus the lifecycle fallout counters.
func churnAggTable(caption string) *report.Table {
	return report.NewTable(caption,
		"system", "reqs", "SVR %", "cold share %", "goodput rps",
		"p95 attain %", "cold starts", "evicted", "migrated", "lost launches")
}

// churnRow adds one system's aggregate accounting to a churn table.
func churnRow(t *report.Table, label string, sys *core.System) {
	sum := sys.SLOSummary()
	cs := sys.ChurnStats()
	var coldStarts float64
	for _, f := range sys.Functions() {
		coldStarts += float64(f.ColdStarts.Value)
	}
	t.AddRow(label, float64(sum.Requests), sum.ViolationRate()*100,
		sum.ColdStartShare()*100, sum.GoodputRPS, sum.P95Attainment*100,
		coldStarts, cs.EvictedInstances, cs.MigratedInstances, cs.LostLaunches)
}

// churnDeploy stands up the three-function serving mix the churn
// scenarios disturb.
func churnDeploy(sys *core.System, mult float64) {
	deploy := func(name, modelName string, arr workload.Arrivals) {
		if _, err := sys.DeployInference(name, modelName, core.InferOpts{
			Instances: 2, Arrivals: arr,
		}); err != nil {
			panic(err)
		}
	}
	deploy("rob-steady", "RoBERTa-large", workload.Poisson{RPS: 25 * mult})
	deploy("bert-burst", "BERT-base", workload.Bursty{
		BaseRPS: 12 * mult, Scale: 3, BurstDur: 12 * sim.Second, Quiet: 30 * sim.Second,
	})
	deploy("vgg-steady", "VGG19", workload.Poisson{RPS: 10 * mult})
}

// ChurnRecovery pushes a seeded failure wave through the three serving
// systems: nodes fail mid-run (instances evicted and relaunched cold,
// requests requeued) and rejoin later. SLO attainment through the wave
// is the disturbance-absorption measure — cold-start-attributed
// violations show who pays for recovery.
func ChurnRecovery(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("churn_recovery", "SLO attainment through a node-failure wave (extra)")
	dur := opts.dur(240 * sim.Second)
	const nodes = 5
	// Two of five nodes fail, one interval apart, each repairing after a
	// third of the run — drawn from a seeded generator so the wave is
	// part of the scenario's determinism contract.
	wave := workload.FailureWave(sim.NewRNG(opts.Seed+101), nodes,
		dur/4, dur/10, dur/3, 2)
	agg := rep.AddTable(churnAggTable("Failure wave: aggregate SLO accounting by system"))
	for _, label := range sloSystems {
		sys := mustClusterSystem(label, nodes, 4, opts)
		churnDeploy(sys, 1.0)
		sys.ScheduleChurn(wave)
		sys.Run(dur)
		churnRow(agg, label, sys)
		if label == "Dilu" {
			rep.SetSLO(sys.SLOSummary())
		}
		if cs := sys.ChurnStats(); cs.Failures != 2 || cs.Joins != 2 {
			panic(fmt.Sprintf("churn_recovery: wave misfired on %s: %+v", label, cs))
		}
	}
	rep.AddNote("evicted instances relaunch cold with their requests requeued at original arrival stamps: recovery cost lands in cold-start-attributed violations, not dropped requests")
	return rep
}

// RollingDrain sweeps a planned upgrade across the fleet: nodes drain
// one at a time (make-before-break migration — the replacement cold-
// starts elsewhere before the drained instance retires), dwell, and
// rejoin before the next node starts. The zero-downtime claim is that
// served capacity never collapses and SLO attainment stays near the
// undisturbed level.
func RollingDrain(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("rolling_drain", "Zero-downtime rolling node drain (extra)")
	dur := opts.dur(240 * sim.Second)
	const nodes = 5
	sweep := workload.RollingDrain(0, 3, dur/5, dur/8)
	agg := rep.AddTable(churnAggTable("Rolling drain: aggregate SLO accounting by system"))
	for _, label := range sloSystems {
		sys := mustClusterSystem(label, nodes, 4, opts)
		churnDeploy(sys, 1.0)
		sys.ScheduleChurn(sweep)
		sys.Run(dur)
		churnRow(agg, label, sys)
		if label == "Dilu" {
			rep.SetSLO(sys.SLOSummary())
		}
		if cs := sys.ChurnStats(); cs.Drains != 3 || cs.Joins != 3 {
			panic(fmt.Sprintf("rolling_drain: sweep misfired on %s: %+v", label, cs))
		}
	}
	rep.AddNote("drained GPUs accept no new placements (armed as a simtest invariant); migrations count make-before-break replacements, so zero evictions is the zero-downtime signature")
	return rep
}

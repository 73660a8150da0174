// Staged cold starts: the serving-plane half of the cold-start stage
// model. model.ColdStartStages supplies the decomposition (image init,
// parameter load, kernel JIT); this file applies the optional node-local
// kernel cache to skip the JIT stage on relaunch, stamps each request
// freed by a cold launch with the stage actually on its critical path,
// and rolls cache/stage activity into the SLO summary's cold-start block.
package core

import (
	"dilu/internal/metrics"
	"dilu/internal/model"
	"dilu/internal/sched"
	"dilu/internal/sim"
)

// kernelCacheCap bounds each node's kernel cache (LRU entries) when
// Config.KernelCache is on.
const kernelCacheCap = 32

// ColdStartStats aggregates the run's cold-launch activity for the SLO
// summary's cold-start block.
type ColdStartStats struct {
	KernelCacheHits   int64
	KernelCacheMisses int64
	PrewarmLaunches   int64
	ColdLaunches      int64
	ColdTime          sim.Duration
}

// ColdStartStats returns the run's cold-launch counters.
func (sys *System) ColdStartStats() ColdStartStats { return sys.coldStats }

// coldStages returns the effective stage durations for a cold launch
// on the decision's GPUs. With kernel caches on, a launch whose target
// nodes all hold compiled kernels for the function skips its JIT stage;
// multi-node instances hit only when every node is warm (each shard
// JITs locally). Without caches the decomposition sums exactly to
// Spec.ColdStart().
func (f *Function) coldStages(dec sched.Decision) model.ColdStartStages {
	st := f.Spec.ColdStartStages()
	if !f.sys.cfg.KernelCache {
		return st
	}
	warm := len(dec.GPUs) > 0
	for _, g := range dec.GPUs {
		if g.Node == nil || !g.Node.KernelsWarm(f.Name) {
			warm = false
			break
		}
	}
	if warm {
		f.sys.coldStats.KernelCacheHits++
		st.KernelJIT = 0
	} else {
		f.sys.coldStats.KernelCacheMisses++
	}
	return st
}

// noteKernels records the function's kernels as compiled on every node
// the decision touches — called when an instance activates (its JIT,
// full or skipped, has completed by then). No-op without caches.
func (f *Function) noteKernels(dec sched.Decision) {
	for _, g := range dec.GPUs {
		if g.Node != nil && g.Node.Kernels != nil {
			g.Node.Kernels.Note(f.Name)
		}
	}
}

// coldStageOnPath attributes a request freed by a cold launch to the
// launch stage its wait overlapped the most: the launch window is
// [ready − total, ready], split into the three stage segments, and the
// stage with the maximum overlap of [arrive, ready] wins (earlier
// stage on exact ties). A request that never waited inside the window
// gets ColdNone.
func coldStageOnPath(arrive, ready sim.Time, st model.ColdStartStages) metrics.ColdStage {
	start := ready - sim.Time(st.Total())
	if arrive < start {
		arrive = start
	}
	if arrive >= ready {
		return metrics.ColdNone
	}
	b1 := start + sim.Time(st.ImageInit)
	b2 := b1 + sim.Time(st.ModelLoad)
	overlap := func(lo, hi sim.Time) sim.Duration {
		if arrive > lo {
			lo = arrive
		}
		if hi <= lo {
			return 0
		}
		return sim.Duration(hi - lo)
	}
	best, bestStage := sim.Duration(0), metrics.ColdNone
	for _, seg := range [...]struct {
		lo, hi sim.Time
		stage  metrics.ColdStage
	}{
		{start, b1, metrics.ColdImageInit},
		{b1, b2, metrics.ColdModelLoad},
		{b2, ready, metrics.ColdKernelJIT},
	} {
		if ov := overlap(seg.lo, seg.hi); ov > best {
			best, bestStage = ov, seg.stage
		}
	}
	return bestStage
}

// flushPendingCold is flushPending for a cold launch's activation: the
// same priority/deadline drain, with each dispatched request stamped
// with the cold-start stage on its critical path. Dispatch order and
// timing are identical to flushPending — the stamp is attribution
// metadata only.
func (f *Function) flushPendingCold(now sim.Time, st model.ColdStartStages) {
	if len(f.pending) == 0 {
		return
	}
	f.orderPending()
	drained := 0
	for _, req := range f.pending {
		in := f.pickLeastLoaded()
		if in == nil {
			break
		}
		req.Dispatch = now
		req.ColdStage = coldStageOnPath(req.Arrive, now, st)
		f.enqueue(in, req)
		drained++
	}
	if drained == 0 {
		return
	}
	f.pending = append(f.pending[:0], f.pending[drained:]...)
}

// coldStartSLO assembles the SLO summary's cold-start block; nil (and
// therefore absent from manifests) when every column is zero.
func (sys *System) coldStartSLO() *metrics.ColdStartSLO {
	cs := &metrics.ColdStartSLO{
		KernelCacheHits:   sys.coldStats.KernelCacheHits,
		KernelCacheMisses: sys.coldStats.KernelCacheMisses,
		PrewarmLaunches:   sys.coldStats.PrewarmLaunches,
		ColdLaunches:      sys.coldStats.ColdLaunches,
		ColdMillisTotal:   sys.coldStats.ColdTime.Millis(),
	}
	for _, f := range sys.funcs {
		cs.ImageInitViolations += int64(f.Rec.StageViolations(metrics.ColdImageInit))
		cs.ModelLoadViolations += int64(f.Rec.StageViolations(metrics.ColdModelLoad))
		cs.KernelJITViolations += int64(f.Rec.StageViolations(metrics.ColdKernelJIT))
		cs.WarmQueueViolations += int64(f.Rec.WarmQueueViolations())
	}
	if *cs == (metrics.ColdStartSLO{}) {
		return nil
	}
	return cs
}

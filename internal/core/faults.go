package core

import (
	"slices"

	"dilu/internal/cluster"
	"dilu/internal/metrics"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// Serving-plane side of gray-failure injection: slowdown and transient-
// error events arrive as a schedule (ScheduleFaults) or direct calls
// (SlowGPU/ErrorGPU), mirroring churn.go's node lifecycle. Slowdowns
// turn a device into a straggler without touching any index the
// scheduler reads — the defining property of a gray failure; errors
// abort in-flight batches and hand the requests back to the gateway for
// redelivery. The health monitor (health.go), when enabled, watches the
// same observable signals and quarantines outliers.

// FaultStats counts injected fault events and their serving-plane
// fallout, plus the health monitor's verdicts.
type FaultStats struct {
	SlowEvents  int
	ErrorEvents int
	// AbortedBatches counts executing batches killed by error events;
	// AbortedRequests counts the requests those aborts redelivered
	// (queued work included — Inference.Abort drains both).
	AbortedBatches  int
	AbortedRequests int
	// Quarantines/Readmits count health-monitor ejections and probe
	// readmissions; QuarantineMigrations counts the make-before-break
	// instance moves quarantines triggered.
	Quarantines          int
	Readmits             int
	QuarantineMigrations int
}

// FaultStats returns the running fault counters.
func (sys *System) FaultStats() FaultStats { return sys.faults }

// ScheduleFaults replays a gray-failure schedule against the system.
// Like ScheduleChurn, events ride a single ScheduleSeries cursor with
// timestamps relative to the current virtual time; the
// slice is cloned and sorted, callers may reuse theirs.
func (sys *System) ScheduleFaults(events []workload.FaultEvent) {
	if len(events) == 0 {
		return
	}
	evs := slices.Clone(events)
	workload.SortFaults(evs)
	times := make([]sim.Time, len(evs))
	for i, ev := range evs {
		times[i] = ev.At
	}
	cursor := 0
	sys.Eng.ScheduleSeries(sys.Eng.Now(), sim.SliceCursor(times), func(now sim.Time) {
		ev := evs[cursor]
		cursor++
		switch ev.Kind {
		case workload.FaultSlow:
			sys.SlowGPU(ev.Node, ev.GPU, ev.Factor)
		case workload.FaultError:
			sys.ErrorGPU(ev.Node, ev.GPU)
		}
	})
}

// faultGPUs resolves a (node, gpu) event target; gpu == -1 selects the
// whole node.
func (sys *System) faultGPUs(nodeIdx, gpuIdx int) []*cluster.GPU {
	node := nodeAt(sys, nodeIdx)
	if node == nil {
		return nil
	}
	if gpuIdx < 0 {
		return node.GPUs
	}
	if gpuIdx >= len(node.GPUs) {
		return nil
	}
	return node.GPUs[gpuIdx : gpuIdx+1]
}

// SlowGPU sets the straggler factor on one GPU (or a whole node with
// gpu == -1): factor > 1 stretches execution, 1 restores full speed.
// Nothing the scheduler reads changes — detection is the health
// monitor's job, from observed signals.
func (sys *System) SlowGPU(node, gpu int, factor float64) {
	targets := sys.faultGPUs(node, gpu)
	if len(targets) == 0 {
		return
	}
	sys.faults.SlowEvents++
	sys.faultsSeen = true
	for _, g := range targets {
		g.Dev.SetSlowdown(factor)
	}
}

// ErrorGPU injects a transient device error on one GPU (or a whole
// node with gpu == -1): every inference instance holding a reservation
// there aborts its in-flight batch and queue, and the requests are
// redelivered through the gateway with their original arrival stamps —
// the retried work shows up in recorded latency. The device itself
// survives (no eviction); the health monitor observes the error for
// its quarantine verdict. Training jobs ride out batch errors (their
// recovery path is churn's checkpoint-restart, driven by real
// failures).
func (sys *System) ErrorGPU(node, gpu int) {
	targets := sys.faultGPUs(node, gpu)
	if len(targets) == 0 {
		return
	}
	sys.faults.ErrorEvents++
	sys.faultsSeen = true
	now := sys.Eng.Now()
	for _, g := range targets {
		if sys.health != nil {
			sys.health.observeError(g, now)
		}
		for _, f := range sys.funcs {
			f.abortOnGPU(g, now)
		}
	}
}

// abortOnGPU aborts every instance of f holding a reservation on g —
// serving instances and keep-alive entries still draining a batch —
// and redelivers the dropped requests. The instance stays placed:
// transient errors cost work, not capacity.
func (f *Function) abortOnGPU(g *cluster.GPU, now sim.Time) {
	for _, si := range f.active {
		f.abortInstance(si, g, now)
	}
	for _, w := range f.warm {
		if w.dead || w.reused {
			continue
		}
		f.abortInstance(w.si, g, now)
	}
}

// resilienceSLO rolls fault-injection and mitigation counters into the
// SLO summary's resilience block. Nil unless the run injected a fault
// or enabled a mitigation layer, so pre-fault manifests keep their
// exact bytes (every column is additionally omitempty).
func (sys *System) resilienceSLO() *metrics.ResilienceSLO {
	if !sys.faultsSeen && sys.cfg.Resilience == nil && sys.cfg.Health == nil {
		return nil
	}
	r := &metrics.ResilienceSLO{
		SlowEvents:           int64(sys.faults.SlowEvents),
		ErrorEvents:          int64(sys.faults.ErrorEvents),
		AbortedBatches:       int64(sys.faults.AbortedBatches),
		AbortedRequests:      int64(sys.faults.AbortedRequests),
		Quarantines:          int64(sys.faults.Quarantines),
		Readmits:             int64(sys.faults.Readmits),
		QuarantineMigrations: int64(sys.faults.QuarantineMigrations),
	}
	for _, f := range sys.funcs {
		st := f.ResilienceStats()
		r.Timeouts += st.Timeouts
		r.Retries += st.Retries
		r.RetrySuccess += st.RetrySuccess
		r.Hedges += st.Hedges
		r.HedgeWins += st.HedgeWins
		r.HedgeDiscards += st.HedgeDiscards
	}
	return r
}

func (f *Function) abortInstance(si *servedInstance, g *cluster.GPU, now sim.Time) {
	if !si.dec.OnGPU(g) {
		return
	}
	inflight := si.inst.InFlight()
	if inflight == 0 && si.inst.QueueLen() == 0 {
		return
	}
	if inflight > 0 {
		f.sys.faults.AbortedBatches++
	}
	reqs := si.inst.Abort()
	f.sys.faults.AbortedRequests += len(reqs)
	f.redispatch(reqs, now)
}

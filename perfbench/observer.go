package main

import (
	"fmt"
	"time"

	"dilu/internal/core"
	"dilu/internal/sim"
	"dilu/internal/simtest"
)

// observer collects the traced pass's per-layer counts. It attaches to
// every System through core.SetDefaultInvariantFactory, as one more
// invariant that never fails and only reads public accessors, so the
// traced pass's manifest matches the timed passes' byte for byte (the
// benchmark checks that). With Parallel 1, Systems are built, checked
// and harvested on the harness's one worker goroutine, so the observer
// needs no lock.
type observer struct {
	live []*sysStat // Systems built since the last harvest

	fired, busy                      int64
	submitted, refused, cold, unused int64

	checks  int64
	checkNS time.Duration
}

// sysStat follows one System: its invariants run at the end of every
// fired tick and once more at each Run horizon.
type sysStat struct {
	sys   *core.System
	fired int64
	busy  int64 // summed instance active-set length over fired ticks
}

func (st *sysStat) check(sys *core.System, _ sim.Time) error {
	st.sys = sys
	st.fired++
	n, _ := sys.ActiveSetSizes()
	st.busy += int64(n)
	return nil
}

// factory returns the invariant factory for the traced pass; with
// checkers it also arms the simtest checkers behind a timer.
func (o *observer) factory(checkers bool) func() []core.Invariant {
	return func() []core.Invariant {
		st := &sysStat{}
		o.live = append(o.live, st)
		invs := []core.Invariant{{Name: "perfbench-observer", Check: st.check}}
		if checkers {
			ct := &checkTimer{o: o, invs: simtest.Checkers()}
			invs = append(invs, core.Invariant{Name: "simtest", Check: ct.check})
		}
		return invs
	}
}

// harvest folds the Systems built so far into the totals and drops
// them, so a pass never holds more than one job's Systems. Call it
// after each job; by then every System has run to its last horizon.
func (o *observer) harvest() {
	for _, st := range o.live {
		if st.sys == nil { // built but never run
			continue
		}
		o.fired += st.fired
		o.busy += st.busy
		o.unused += int64(st.sys.Eng.Pending())
		for _, f := range st.sys.Functions() {
			sub, _, shed := f.GatewayCounts()
			o.submitted += sub
			o.refused += shed
		}
		o.cold += st.sys.ColdStartStats().ColdLaunches
	}
	o.live = nil
}

// checkTimer runs the simtest checkers of one System in their usual
// order and times them together, two clock reads per check point.
type checkTimer struct {
	o    *observer
	invs []core.Invariant
}

func (c *checkTimer) check(sys *core.System, now sim.Time) error {
	start := time.Now()
	for i := range c.invs {
		if err := c.invs[i].Check(sys, now); err != nil {
			return fmt.Errorf("%s: %w", c.invs[i].Name, err)
		}
	}
	c.o.checkNS += time.Since(start)
	c.o.checks += int64(len(c.invs))
	return nil
}

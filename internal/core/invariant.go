package core

import (
	"fmt"

	"dilu/internal/instance"
	"dilu/internal/rckm"
	"dilu/internal/sim"
)

// Invariant is a named, read-only predicate over a System's state,
// checked at the end of every fired simulation tick and once more when
// Run reaches its horizon. A non-nil error aborts the run with a panic
// naming the invariant — simulation state is corrupt, and continuing
// would launder the corruption into results.
//
// Invariants must not mutate the system; per-system checker state (e.g.
// a monotone-time watermark) lives in the closure, which is why the
// default installation point is a factory — every System gets fresh
// instances, keeping parallel harness runs independent.
type Invariant struct {
	Name  string
	Check func(sys *System, now sim.Time) error
}

// defaultInvariantFactory, when non-nil, supplies invariants appended to
// every new System's configured list. Installed once by test mains (see
// internal/simtest); not synchronized, so it must be set before any
// System is built.
var defaultInvariantFactory func() []Invariant

// SetDefaultInvariantFactory installs a factory whose invariants attach
// to every subsequently built System. Passing nil uninstalls. Call only
// from TestMain (before systems exist): the hook is deliberately
// unsynchronized.
func SetDefaultInvariantFactory(f func() []Invariant) { defaultInvariantFactory = f }

// checkInvariants runs every attached invariant, panicking on the first
// violation.
func (sys *System) checkInvariants(now sim.Time) {
	for i := range sys.invariants {
		inv := &sys.invariants[i]
		if err := inv.Check(sys, now); err != nil {
			panic(fmt.Sprintf("core: invariant %q violated at %s: %v", inv.Name, now, err))
		}
	}
}

// ---------------------------------------------------------------------------
// Read-only accessors for invariant checkers (and tests). None of these
// are on the simulation hot path.

// InActiveSet reports whether the runtime is currently registered in the
// tick loop's instance active set.
func (sys *System) InActiveSet(t instance.Ticker) bool { return sys.instActive[t] }

// ActiveSetSizes returns the instance active set's list length and index
// size (equal unless membership bookkeeping is corrupt).
func (sys *System) ActiveSetSizes() (list, index int) {
	return len(sys.activeInsts), len(sys.instActive)
}

// ActiveManagers returns the tick loop's manager active set: the
// managers with registered clients, whose devices the execution phase
// steps. The slice is the system's live set — callers must treat it as
// read-only and must not hold it across attach or detach.
func (sys *System) ActiveManagers() []*rckm.Manager { return sys.activeMgrs }

// VisitInstances calls visit for every live inference instance of the
// function: serving instances first (deployment order), then keep-alive
// (warm) instances that are neither reused nor expired.
func (f *Function) VisitInstances(visit func(in instance.Server, warm bool)) {
	for _, si := range f.active {
		visit(si.inst, false)
	}
	for _, w := range f.warm {
		if !w.dead && !w.reused {
			visit(w.si.inst, true)
		}
	}
}

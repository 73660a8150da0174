package sim

import (
	"testing"
)

// TestIdleFastForwardTickPhase verifies that fast-forwarding across an
// idle stretch lands subsequent ticks on exactly the same 5 ms lattice
// as stepping every boundary would: a tick turned on by an off-lattice
// event first fires at the next lattice point, not at the event time or
// a shifted phase.
func TestIdleFastForwardTickPhase(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	e.SetTick(func(now Time) { ticks = append(ticks, now) })
	e.SetTicking(false)
	// Off-lattice activation: 12.5 ms sits between the 10 and 15 ms
	// boundaries.
	e.Schedule(12*Millisecond+500*Microsecond, func(now Time) {
		if now != 12*Millisecond+500*Microsecond {
			t.Fatalf("event fired at %v", now)
		}
		e.SetTicking(true)
	})
	e.Run(30 * Millisecond)
	want := []Time{15 * Millisecond, 20 * Millisecond, 25 * Millisecond, 30 * Millisecond}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
	if e.Now() != 30*Millisecond {
		t.Fatalf("now = %v, want 30ms", e.Now())
	}
}

// TestIdleFastForwardOnLatticeActivation checks the boundary case: a
// turn-on event scheduled exactly on a lattice point runs before the
// tick at that point, and the tick then fires — the same order stepping
// produces.
func TestIdleFastForwardOnLatticeActivation(t *testing.T) {
	e := NewEngine()
	var order []string
	e.SetTick(func(now Time) {
		order = append(order, "tick@"+now.String())
	})
	e.SetTicking(false)
	e.Schedule(20*Millisecond, func(Time) {
		order = append(order, "event")
		e.SetTicking(true)
	})
	e.Run(25 * Millisecond)
	want := []string{"event", "tick@0.020s", "tick@0.025s"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestIdleFastForwardMatchesStepping runs the same event script on two
// engines — one whose tick turns off during idle stretches (enabling
// fast-forward), one always ticking whose tick is a no-op while "idle" —
// and requires identical final state and identical tick times during
// busy phases.
func TestIdleFastForwardMatchesStepping(t *testing.T) {
	type world struct {
		eng   *Engine
		busy  bool
		ticks []Time
	}
	run := func(fastForward bool) *world {
		w := &world{eng: NewEngine()}
		w.eng.SetTick(func(now Time) {
			if w.busy {
				w.ticks = append(w.ticks, now)
			}
		})
		// Busy 0-20ms, idle until 112.5ms, busy again until 130ms.
		w.busy = true
		w.eng.Schedule(20*Millisecond, func(Time) {
			w.busy = false
			if fastForward {
				w.eng.SetTicking(false)
			}
		})
		w.eng.Schedule(112*Millisecond+500*Microsecond, func(Time) {
			w.busy = true
			if fastForward {
				w.eng.SetTicking(true)
			}
		})
		w.eng.Run(130 * Millisecond)
		return w
	}
	ff, ref := run(true), run(false)

	if ff.eng.Now() != ref.eng.Now() {
		t.Fatalf("now: ff=%v ref=%v", ff.eng.Now(), ref.eng.Now())
	}
	if len(ff.ticks) != len(ref.ticks) {
		t.Fatalf("tick counts differ: ff=%v ref=%v", ff.ticks, ref.ticks)
	}
	for i := range ref.ticks {
		if ff.ticks[i] != ref.ticks[i] {
			t.Fatalf("tick %d: ff=%v ref=%v", i, ff.ticks[i], ref.ticks[i])
		}
	}
}

// TestIdleFastForwardEmptyEngine checks that an engine whose tick is off
// jumps straight to the horizon while events still fire at their times.
func TestIdleFastForwardEmptyEngine(t *testing.T) {
	e := NewEngine()
	e.SetTick(func(Time) { t.Fatal("tick fired while off") })
	e.SetTicking(false)
	fired := Time(-1)
	e.Schedule(3*Hour+7*Millisecond, func(now Time) { fired = now })
	e.Run(12 * Hour)
	if fired != 3*Hour+7*Millisecond {
		t.Fatalf("event fired at %v", fired)
	}
	if e.Now() != 12*Hour {
		t.Fatalf("now = %v, want 12h", e.Now())
	}
}

// TestStepWithInactiveTickers keeps Step's one-boundary contract while
// the tick is off.
func TestStepWithInactiveTickers(t *testing.T) {
	e := NewEngine()
	e.SetTick(func(Time) {})
	e.SetTicking(false)
	if got := e.Step(); got != TickPeriod {
		t.Fatalf("Step = %v, want %v", got, TickPeriod)
	}
	if got := e.Step(); got != 2*TickPeriod {
		t.Fatalf("Step = %v, want %v", got, 2*TickPeriod)
	}
}

// TestScheduleSeriesMatchesIndividualSchedules drives two engines with
// the same two arrival series — one via pulled ScheduleSeries cursors,
// one via a Schedule call per arrival — interleaved with competing
// same-time events scheduled before, between and after the two
// registrations, and requires the exact same execution order: each
// series' head orders by the one seq it took at registration, so ties
// resolve as if every entry had been scheduled there.
func TestScheduleSeriesMatchesIndividualSchedules(t *testing.T) {
	first := []Time{Millisecond, 5 * Millisecond, 5 * Millisecond, 12 * Millisecond}
	second := []Time{5 * Millisecond, 5 * Millisecond, 9 * Millisecond}

	run := func(series bool) []string {
		e := NewEngine()
		var got []string
		register := func(label string, times []Time) {
			fn := func(now Time) { got = append(got, label+"@"+now.String()) }
			if series {
				e.ScheduleSeries(0, SliceCursor(times), fn)
				return
			}
			for _, at := range times {
				e.Schedule(at, fn)
			}
		}
		e.Schedule(5*Millisecond, func(Time) { got = append(got, "pre") })
		register("a", first)
		e.Schedule(5*Millisecond, func(Time) { got = append(got, "mid") })
		register("b", second)
		e.Schedule(5*Millisecond, func(Time) { got = append(got, "post") })
		e.Run(20 * Millisecond)
		return got
	}

	a, b := run(true), run(false)
	if len(a) != len(b) || len(a) != 3+len(first)+len(second) {
		t.Fatalf("series=%v individual=%v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverged at %d: series=%v individual=%v", i, a, b)
		}
	}
}

// TestScheduleSeriesPending verifies Pending counts one head per live
// series, however long the series, and that drained series are released.
func TestScheduleSeriesPending(t *testing.T) {
	e := NewEngine()
	e.ScheduleSeries(0, SliceCursor([]Time{Millisecond, 2 * Millisecond, 8 * Millisecond}), func(Time) {})
	e.Schedule(6*Millisecond, func(Time) {})
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2 (one head + one event)", got)
	}
	e.Run(4 * Millisecond)
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	e.Run(10 * Millisecond)
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending = %d, want 0", got)
	}
}

// TestScheduleSeriesPullChecks verifies the series' order checks fire
// when the offending entry is pulled.
func TestScheduleSeriesPullChecks(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("starts in the past", func() {
		e := NewEngine()
		e.Run(10 * Millisecond)
		e.ScheduleSeries(0, SliceCursor([]Time{5 * Millisecond}), func(Time) {})
	})
	mustPanic("goes back in time", func() {
		e := NewEngine()
		e.ScheduleSeries(0, SliceCursor([]Time{Millisecond, 3 * Millisecond, 2 * Millisecond}), func(Time) {})
		e.Run(10 * Millisecond)
	})
	e := NewEngine()
	e.ScheduleSeries(0, SliceCursor(nil), func(Time) { t.Fatal("empty series fired") })
	if e.Pending() != 0 {
		t.Fatal("empty series left a head")
	}
	e.Run(10 * Millisecond)
}

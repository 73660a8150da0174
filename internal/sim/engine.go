// Package sim provides the deterministic discrete-event simulation kernel
// on which every Dilu experiment runs. Simulated time is measured in
// microseconds of virtual time; wall-clock time never enters results.
//
// The engine combines a classic event queue (one-shot callbacks at
// arbitrary times) with one fixed-period tick, which is the natural shape
// for Dilu: request arrivals and cold-start completions are events, while
// the RCKM token cycle and GPU execution advance on a fixed 5 ms tick
// (TickPeriod). The engine holds a single tick callback (SetTick): the
// world loop that owns every per-tick phase.
//
// Three properties keep the hot path cheap at scale without changing
// results:
//
//   - The event queue is a value-based 4-ary min-heap: scheduling an
//     event appends into a reused backing array instead of boxing a
//     per-event allocation behind container/heap's interface{} API.
//     Pop order is totally determined by (time, sequence), so the heap's
//     internal arrangement never affects behaviour.
//   - A long event series (a function's request arrivals, a churn or
//     fault schedule) is pulled from a Cursor one entry at a time
//     (ScheduleSeries): the queue holds only the series' head, so memory
//     does not grow with the series' length or horizon.
//   - The tick carries an on/off bit (SetTicking). While it is off, Run
//     fast-forwards virtual time straight to the next event instead of
//     stepping through empty 5 ms boundaries. The tick phase is
//     preserved — the next fired tick lands on exactly the same period
//     lattice as if every empty tick had been stepped — so a world that
//     turns its tick off only when the tick is a no-op observes
//     bit-identical results.
package sim

import (
	"fmt"
)

// Time is virtual simulation time in microseconds since the start of a run.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration = Time

// Common durations, mirroring time.Duration style but in virtual µs.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
	Hour        Duration = 60 * Minute
)

// TickPeriod is the RCKM token issuing period from the paper (5 ms).
const TickPeriod = 5 * Millisecond

// Seconds converts a virtual time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts a virtual time to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds converts floating-point seconds to virtual time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromMillis converts floating-point milliseconds to virtual time.
func FromMillis(ms float64) Time { return Time(ms * float64(Millisecond)) }

func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

type event struct {
	at  Time
	seq uint64
	fn  func(Time)
}

// eventHeap is a value-based 4-ary min-heap ordered by (at, seq). The
// backing array doubles as its own free-list: popped slots are reused by
// later pushes, so a steady-state workload schedules events with zero
// per-event heap allocations. (at, seq) is a total order — seq is unique
// — so pop order is independent of sibling arrangement.
type eventHeap []event

func (h event) less(o event) bool {
	if h.at != o.at {
		return h.at < o.at
	}
	return h.seq < o.seq
}

// push appends e and sifts it up to its heap position.
func (h *eventHeap) push(e event) {
	a := *h
	i := len(a)
	a = append(a, e)
	for i > 0 {
		parent := (i - 1) / 4
		if !a[i].less(a[parent]) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
	*h = a
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n].fn = nil // release the closure to the GC; the slot itself is reused
	a = a[:n]
	*h = a
	// Sift down.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if a[c].less(a[min]) {
				min = c
			}
		}
		if !a[min].less(a[i]) {
			break
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
	return top
}

// Cursor yields the entries of an event series one at a time, in
// non-decreasing order; ok=false ends the series, after which the cursor
// is not called again.
type Cursor func() (at Time, ok bool)

// SliceCursor returns a cursor over a sorted slice. It reads ts in place;
// the caller must not modify it while the cursor is live.
func SliceCursor(ts []Time) Cursor {
	i := 0
	return func() (Time, bool) {
		if i == len(ts) {
			return 0, false
		}
		i++
		return ts[i-1], true
	}
}

// series is one ScheduleSeries registration. Only its head lives in the
// heap, always under the one seq the series took when it was
// registered; firing the head pulls the next entry and pushes it back
// under the same seq.
type series struct {
	e    *Engine
	base Time
	seq  uint64
	next Cursor
	fn   func(Time)
	last Time       // offset of the current head, for the order check
	fire func(Time) // s.pull as a method value, bound once per series
}

// pull advances the series past its fired head, then runs its callback.
func (s *series) pull(now Time) {
	if t, ok := s.next(); ok {
		if t < s.last {
			panic("sim: ScheduleSeries times must be non-decreasing")
		}
		s.last = t
		s.e.events.push(event{at: s.base + t, seq: s.seq, fn: s.fire})
	}
	s.fn(now)
}

// Engine is a single-threaded deterministic simulator. It is not safe for
// concurrent use; experiments that need parallelism run independent engines.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	// tick is the one callback fired on every tick boundary while
	// ticking is on; while it is off the Run loop fast-forwards across
	// tick boundaries.
	tick    func(now Time)
	ticking bool
	// nextTick is the time of the next pending fixed tick.
	nextTick Time
	// meter, when non-nil, observes virtual time advanced by Run.
	meter *Meter
}

// NewEngine returns an engine whose fixed tick period is TickPeriod
// (5 ms). It has no tick callback until SetTick installs one.
func NewEngine() *Engine { return &Engine{nextTick: TickPeriod} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetMeter attaches a Meter that observes this engine's progress. Passing
// nil detaches. Attaching counts the engine on the meter exactly once per
// call with a non-nil meter.
func (e *Engine) SetMeter(m *Meter) {
	e.meter = m
	m.addEngine()
}

// SetTick installs fn, which must be non-nil, as the engine's tick
// callback, replacing any earlier one, and turns ticking on.
func (e *Engine) SetTick(fn func(now Time)) { e.tick, e.ticking = fn, true }

// SetTicking turns the tick callback on or off. While it is off, Run
// fast-forwards across empty tick boundaries (see package comment). The
// caller contracts that the callback is a no-op whenever ticking is off;
// under that contract results are bit-identical to ticking always on.
func (e *Engine) SetTicking(on bool) { e.ticking = on }

// Schedule registers fn to run at virtual time at. Events scheduled in the
// past run at the current time, preserving submission order.
func (e *Engine) Schedule(at Time, fn func(Time)) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, fn: fn})
}

// After registers fn to run d after the current virtual time.
func (e *Engine) After(d Duration, fn func(Time)) { e.Schedule(e.now+d, fn) }

// ScheduleSeries registers fn to run at base+t for every t that next
// yields. It is equivalent to calling Schedule(base+t, fn) for each t at
// registration, but holds only the series' head in the queue and pulls
// each further entry when the one before it fires. The series takes a
// single seq at registration and its head orders by (time, that seq):
// since a series' entries are in time order, this is exactly the order
// individual Schedules would give, exact-time ties with other events and
// other series included. Pulling panics if the series starts in the
// past or goes back in time.
func (e *Engine) ScheduleSeries(base Time, next Cursor, fn func(Time)) {
	t, ok := next()
	if !ok {
		return
	}
	if base+t < e.now {
		panic("sim: ScheduleSeries starts in the past")
	}
	e.seq++
	s := &series{e: e, base: base, seq: e.seq, next: next, fn: fn, last: t}
	s.fire = s.pull
	e.events.push(event{at: base + t, seq: s.seq, fn: s.fire})
}

// Pending reports the number of queued one-shot events plus one head per
// live series.
func (e *Engine) Pending() int { return len(e.events) }

// Run advances virtual time until `until`, executing every due event and
// fixed tick in deterministic order: all events at or before a tick boundary
// run first, then the tick fires. While ticking is off, boundaries
// with nothing to do are skipped wholesale (idle fast-forward): virtual
// time jumps to the next event — or the horizon — and the tick phase is
// realigned onto the same 5 ms lattice it would have reached by stepping.
func (e *Engine) Run(until Time) {
	start := e.now
	ticks := int64(0)
	for e.now < until {
		if !e.ticking {
			// No tick can observe the skipped boundaries. Jump the
			// tick lattice forward to the first boundary at or after the
			// next event (or the horizon), preserving phase.
			target := until
			if len(e.events) > 0 && e.events[0].at < target {
				target = e.events[0].at
			}
			if target > e.nextTick {
				k := (target - e.nextTick + TickPeriod - 1) / TickPeriod
				e.nextTick += k * TickPeriod
			}
		}
		boundary := e.nextTick
		if boundary > until {
			boundary = until
		}
		// Drain events due at or before the boundary.
		for len(e.events) > 0 && e.events[0].at <= boundary {
			ev := e.events.pop()
			e.now = ev.at
			ev.fn(e.now)
		}
		e.now = boundary
		if boundary == e.nextTick {
			if e.ticking {
				e.tick(e.now)
			}
			e.nextTick += TickPeriod
			ticks++
		}
	}
	e.meter.AddVirtual(e.now - start)
	e.meter.addTicks(ticks)
}

// Step advances exactly one fixed tick (running due events first) and
// returns the new time. Useful in unit tests.
func (e *Engine) Step() Time {
	e.Run(e.nextTick)
	return e.now
}

package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// The event queue's contract: pops are totally ordered by (time, seq),
// where seq is assigned in submission order — one per Schedule call, a
// contiguous range per ScheduleSeries — regardless of how entries are
// physically held (a series keeps only its head queued, under one seq,
// and pulls the rest from its cursor). These property tests pit random
// interleavings of Schedule/ScheduleSeries against a reference
// implementation that holds every event in a flat slice and sorts by
// (time, seq).

// refEvent mirrors one scheduled entry in the reference order.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// refOrder computes the expected firing order: stable is unnecessary
// because (at, seq) is a total order, but slices.SortStableFunc keeps
// the comparison honest if a duplicate seq ever appeared.
func refOrder(evs []refEvent, horizon Time) []refEvent {
	var due []refEvent
	for _, e := range evs {
		if e.at <= horizon {
			due = append(due, e)
		}
	}
	slices.SortStableFunc(due, func(a, b refEvent) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
	return due
}

// fired is one observed callback invocation.
type fired struct {
	id int
	at Time
}

// buildRandomSchedule drives eng with a random interleaving of Schedule
// and ScheduleSeries calls and returns the reference event list and the
// number of events the engine should still hold after running to
// horizon: one per one-shot event past it, one head per series with an
// entry past it. Times are drawn from a coarse lattice so exact-time
// ties between heap events and series entries are common, not
// exceptional.
func buildRandomSchedule(rng *rand.Rand, eng *Engine, horizon Time, record func(id int) func(Time)) ([]refEvent, int) {
	var evs []refEvent
	pending := 0
	seq := uint64(0) // mirrors the engine's internal counter
	id := 0
	ops := 1 + rng.Intn(20)
	for op := 0; op < ops; op++ {
		if rng.Intn(2) == 0 {
			// One-shot event; occasionally past the horizon (must not fire).
			at := Time(rng.Int63n(int64(horizon)/100*125)) / 100 * 100
			seq++
			evs = append(evs, refEvent{at: at, seq: seq, id: id})
			eng.Schedule(at, record(id))
			id++
			if at > horizon {
				pending++
			}
		} else {
			// Series: sorted coarse times, possibly with internal
			// duplicates, sharing one callback like a real arrival trace.
			n := 1 + rng.Intn(30)
			times := make([]Time, n)
			for i := range times {
				times[i] = Time(rng.Int63n(int64(horizon))) / 100 * 100
			}
			slices.Sort(times)
			ids := make([]int, n)
			for i := range ids {
				seq++
				evs = append(evs, refEvent{at: times[i], seq: seq, id: id})
				ids[i] = id
				id++
			}
			// The shared callback resolves which series entry fired by
			// consumption order — exactly how the engine advances the
			// cursor.
			next := 0
			eng.ScheduleSeries(0, SliceCursor(times), func(now Time) {
				record(ids[next])(now)
				next++
			})
			if times[n-1] > horizon {
				pending++
			}
		}
	}
	return evs, pending
}

// TestEventOrderRandomInterleavings is the core property: any mix of
// Schedule and ScheduleSeries pops in exactly the (time, seq) order the
// reference slice-sort predicts, and every callback observes its own
// scheduled time.
func TestEventOrderRandomInterleavings(t *testing.T) {
	const horizon = 10 * Second
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		eng := NewEngine()
		var got []fired
		record := func(id int) func(Time) {
			return func(now Time) { got = append(got, fired{id: id, at: now}) }
		}
		evs, pending := buildRandomSchedule(rng, eng, horizon, record)
		eng.Run(horizon)

		want := refOrder(evs, horizon)
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].id != want[i].id || got[i].at != want[i].at {
				t.Fatalf("trial %d: pop %d = (id %d, %s), want (id %d, %s)",
					trial, i, got[i].id, got[i].at, want[i].id, want[i].at)
			}
		}
		if eng.Pending() != pending {
			t.Fatalf("trial %d: %d pending after run, want %d (past-horizon events and series heads)",
				trial, eng.Pending(), pending)
		}
	}
}

// TestEventOrderWithDynamicScheduling extends the property to callbacks
// that schedule follow-up events mid-run (the cold-start / keep-alive
// pattern): children must interleave with pending series entries in
// (time, seq) order too. The reference engine is a flat slice popped by
// linear min-scan, mirroring the engine's clamping of past times.
func TestEventOrderWithDynamicScheduling(t *testing.T) {
	const horizon = 10 * Second
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 5000))

		// Script the spawns up front so the real and reference runs make
		// identical decisions: spawns[id] = delay of the child event, -1
		// for none.
		spawns := map[int]Time{}

		eng := NewEngine()
		var got []fired
		nextChild := 100000 // child ids start far above scheduled ids
		var schedule func(id int) func(Time)
		schedule = func(id int) func(Time) {
			return func(now Time) {
				got = append(got, fired{id: id, at: now})
				if d, ok := spawns[id]; ok {
					child := nextChild
					nextChild++
					eng.Schedule(now+d, schedule(child))
				}
			}
		}
		evs, _ := buildRandomSchedule(rng, eng, horizon, schedule)
		for _, e := range evs {
			if rng.Intn(4) == 0 {
				spawns[e.id] = Time(rng.Int63n(int64(2 * Second)))
			}
		}

		// Reference: pop min (at, seq), fire, apply the same spawn table.
		refSeq := uint64(len(evs))
		pending := append([]refEvent(nil), evs...)
		refChild := 100000
		var want []fired
		for {
			best := -1
			for i, e := range pending {
				if best < 0 || e.at < pending[best].at ||
					(e.at == pending[best].at && e.seq < pending[best].seq) {
					best = i
				}
			}
			if best < 0 || pending[best].at > horizon {
				break
			}
			e := pending[best]
			pending = append(pending[:best], pending[best+1:]...)
			want = append(want, fired{id: e.id, at: e.at})
			if d, ok := spawns[e.id]; ok {
				refSeq++
				pending = append(pending, refEvent{at: e.at + d, seq: refSeq, id: refChild})
				refChild++
			}
		}

		eng.Run(horizon)
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: pop %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// FuzzEventOrder lets the fuzzer search for interleavings where the
// engine's pop order diverges from the reference sort. Bytes decode to a
// deterministic op script: each op is either one Schedule or one short
// ScheduleSeries.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0x01, 0x40, 0x82, 0x10, 0x03, 0x55})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0x10, 0x20})
	f.Add([]byte{0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		const horizon = Second
		eng := NewEngine()
		var got []fired
		record := func(id int) func(Time) {
			return func(now Time) { got = append(got, fired{id: id, at: now}) }
		}
		var evs []refEvent
		seq := uint64(0)
		id := 0
		for i := 0; i < len(data); {
			b := data[i]
			i++
			if b%2 == 0 {
				at := Time(b) * 7 * Millisecond
				seq++
				evs = append(evs, refEvent{at: at, seq: seq, id: id})
				eng.Schedule(at, record(id))
				id++
				continue
			}
			n := int(b%5) + 1
			var times []Time
			for j := 0; j < n && i < len(data); j++ {
				times = append(times, Time(data[i])*5*Millisecond)
				i++
			}
			if len(times) == 0 {
				continue
			}
			slices.Sort(times)
			ids := make([]int, len(times))
			for j := range times {
				seq++
				evs = append(evs, refEvent{at: times[j], seq: seq, id: id})
				ids[j] = id
				id++
			}
			next := 0
			eng.ScheduleSeries(0, SliceCursor(times), func(now Time) {
				record(ids[next])(now)
				next++
			})
		}
		eng.Run(horizon)
		want := refOrder(evs, horizon)
		if len(got) != len(want) {
			t.Fatalf("fired %d events, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].id != want[i].id || got[i].at != want[i].at {
				t.Fatalf("pop %d = %+v, want (id %d, %s)", i, got[i], want[i].id, want[i].at)
			}
		}
	})
}

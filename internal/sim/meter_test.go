package sim

import (
	"math/rand"
	"sync"
	"testing"
)

// TestMeterMergeOrderIndependent is the regression for meter
// aggregation: folding the same set of meters into an aggregate must
// give identical totals for every permutation of merge order — and when
// every meter is folded concurrently. Before Merge existed, callers
// hand-copied counters non-atomically; this pins the commutative-add
// contract.
func TestMeterMergeOrderIndependent(t *testing.T) {
	const shards = 7
	mk := func() []*Meter {
		ms := make([]*Meter, shards)
		for i := range ms {
			ms[i] = &Meter{}
			ms[i].AddVirtual(Duration(i+1) * Second)
			ms[i].AddEngines(int64(i % 3))
			ms[i].addTicks(int64(100 * (i + 1)))
		}
		return ms
	}
	total := func(agg *Meter) [3]int64 {
		return [3]int64{int64(agg.Virtual()), agg.Engines(), agg.Ticks()}
	}

	base := &Meter{}
	for _, m := range mk() {
		base.Merge(m)
	}
	want := total(base)

	// Every-permutation-by-sampling: shuffled merge orders.
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		ms := mk()
		rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
		agg := &Meter{}
		for _, m := range ms {
			agg.Merge(m)
		}
		if total(agg) != want {
			t.Fatalf("trial %d: shuffled merge totals %v, want %v", trial, total(agg), want)
		}
	}

	// Concurrent reports (run under -race via test-race-subsys).
	for trial := 0; trial < 20; trial++ {
		agg := &Meter{}
		ms := mk()
		var wg sync.WaitGroup
		for _, m := range ms {
			wg.Add(1)
			go func(m *Meter) {
				defer wg.Done()
				agg.Merge(m)
			}(m)
		}
		wg.Wait()
		if total(agg) != want {
			t.Fatalf("trial %d: concurrent merge totals %v, want %v", trial, total(agg), want)
		}
	}

	// Nil safety both ways.
	var nilMeter *Meter
	nilMeter.Merge(mk()[0])
	base.Merge(nil)
	if total(base) != want {
		t.Fatalf("nil merge changed totals: %v, want %v", total(base), want)
	}
}

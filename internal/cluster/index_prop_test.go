package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// These property tests drive random Place/Remove/Drain interleavings —
// and, since the lifecycle work, random FailNode/DrainNode/JoinNode
// churn on heterogeneous fleets — and, after every operation, require
// each incremental index — the function posting lists, the occupancy
// buckets, the active list, the free heap, and the retired counters —
// to agree exactly with a from-scratch recomputation over the
// inventory. They run under -race via `make test-race-subsys`.

// checkIndexesConsistent recomputes every index from the placements and
// compares. The occupancy comparison goes through OccupancyBucket (the
// read API) and requires the index to be exact: every active GPU in the
// bucket of its current utilization, once, and nothing else — so a GPU
// left behind in its old bucket after a move, or in any bucket after
// deactivation, fails, and duplicates inside a bucket are a failure in
// their own right.
func checkIndexesConsistent(t *testing.T, c *Cluster, step int) {
	t.Helper()

	// Active list: GPUs with placements, in inventory order.
	var wantActive []*GPU
	for _, g := range c.gpus {
		if g.Active() {
			wantActive = append(wantActive, g)
		}
	}
	if !slices.Equal(wantActive, c.ActiveGPUs()) {
		t.Fatalf("step %d: active list diverged (len %d vs %d)",
			step, len(c.ActiveGPUs()), len(wantActive))
	}

	// Posting index: for every function with a live placement, the
	// hosting GPUs in inventory order; and no dead keys linger.
	wantPosting := map[string][]*GPU{}
	for _, g := range c.gpus {
		for fn := range g.funcCounts {
			wantPosting[fn] = append(wantPosting[fn], g)
		}
	}
	for fn, want := range wantPosting {
		slices.SortFunc(want, func(a, b *GPU) int { return a.pos - b.pos })
		if got := c.FuncGPUs(fn); !slices.Equal(want, got) {
			t.Fatalf("step %d: posting list for %q diverged: got %d GPUs, want %d",
				step, fn, len(got), len(want))
		}
	}
	for fn := range c.posting {
		if _, ok := wantPosting[fn]; !ok {
			t.Fatalf("step %d: posting index retains dead function %q", step, fn)
		}
	}

	// Occupancy index: every active GPU appears in exactly the bucket
	// its current normalized utilization maps to, exactly once, and in
	// no other bucket.
	seen := map[*GPU]int{}
	for b := 0; b < OccupancyBuckets; b++ {
		for _, g := range c.OccupancyBucket(b) {
			if prev, dup := seen[g]; dup {
				t.Fatalf("step %d: %s appears in buckets %d and %d", step, g.ID, prev, b)
			}
			seen[g] = b
			if want := OccupancyBucketOf(g.Util()); want != b {
				t.Fatalf("step %d: %s (util=%v) in bucket %d, want %d",
					step, g.ID, g.Util(), b, want)
			}
			if !g.Active() {
				t.Fatalf("step %d: inactive %s surfaced from bucket %d", step, g.ID, b)
			}
		}
	}
	if len(seen) != len(wantActive) {
		t.Fatalf("step %d: occupancy index covers %d GPUs, want %d active",
			step, len(seen), len(wantActive))
	}

	// Free index: FirstInactiveFit(0, 0) returns the earliest schedulable
	// inactive GPU (a zero need fits every GPU); retired (failed or
	// draining) slots never surface.
	var wantFirst *GPU
	wantSchedInactive := 0
	for _, g := range c.gpus {
		if !g.Active() && g.Schedulable() {
			if wantFirst == nil {
				wantFirst = g
			}
			wantSchedInactive++
		}
	}
	if got := c.FirstInactiveFit(0, 0); got != wantFirst {
		t.Fatalf("step %d: FirstInactiveFit(0, 0) = %v, want %v", step, got, wantFirst)
	}
	if got := c.SchedulableInactive(); got != wantSchedInactive {
		t.Fatalf("step %d: SchedulableInactive = %d, want %d", step, got, wantSchedInactive)
	}

	// Retired quiescence and capacity accounting.
	var wantCap float64
	for _, g := range c.gpus {
		if g.Active() {
			wantCap += g.Capacity
		}
		if g.Health() == Failed && len(g.Placements) > 0 {
			t.Fatalf("step %d: failed %s still holds %d placements", step, g.ID, len(g.Placements))
		}
	}
	if diff := wantCap - c.OccupiedCapacity(); diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("step %d: OccupiedCapacity = %v, want %v", step, c.OccupiedCapacity(), wantCap)
	}

	// AppendInactive agrees with a filtered inventory scan prefix.
	got := c.AppendInactive(nil, 3)
	var want []*GPU
	for _, g := range c.gpus {
		if len(want) == 3 {
			break
		}
		if !g.Active() && g.Schedulable() {
			want = append(want, g)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: AppendInactive(3) diverged from scan", step)
	}
}

// TestIndexConsistencyProperty interleaves placements, removals, and
// whole-GPU drains under a seeded RNG and checks full index/recompute
// agreement after every single operation.
func TestIndexConsistencyProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			c := New(Config{Nodes: 4, GPUsPerNode: 3, MemCapMB: 1 << 20})
			funcs := []string{"bert", "resnet", "llama", "gpt2", "vgg"}
			var live []*Placement
			onGPU := map[*Placement]*GPU{}
			steps := 400
			if testing.Short() {
				steps = 120
			}
			for step := 0; step < steps; step++ {
				switch op := rng.Intn(10); {
				case op < 5 || len(live) == 0: // place
					g := c.gpus[rng.Intn(len(c.gpus))]
					p := &Placement{
						Instance: fmt.Sprintf("i%d", step),
						Func:     funcs[rng.Intn(len(funcs))],
						Req:      float64(rng.Intn(1000)) / 999, // hits 0 and 1 exactly
						Lim:      rng.Float64() * 1.5,
						MemMB:    float64(rng.Intn(4096)),
					}
					if err := g.Place(p); err == nil {
						live = append(live, p)
						onGPU[p] = g
					}
				case op < 8: // remove one
					i := rng.Intn(len(live))
					p := live[i]
					onGPU[p].Remove(p)
					delete(onGPU, p)
					live = slices.Delete(live, i, i+1)
				default: // drain a whole GPU
					g := c.gpus[rng.Intn(len(c.gpus))]
					for len(g.Placements) > 0 {
						p := g.Placements[len(g.Placements)-1]
						g.Remove(p)
						delete(onGPU, p)
						if i := slices.Index(live, p); i >= 0 {
							live = slices.Delete(live, i, i+1)
						}
					}
				}
				checkIndexesConsistent(t, c, step)
			}
		})
	}
}

// TestLifecycleIndexConsistencyProperty interleaves placements,
// removals, and random node Fail/Drain/Join churn on a heterogeneous
// (70/30 big/small) fleet, checking full index/recompute agreement
// after every single operation — the churn extension of the property
// suite. Runs under -race via `make test-race-subsys`.
func TestLifecycleIndexConsistencyProperty(t *testing.T) {
	classes := []GPUClass{
		{Name: "big", Capacity: 1.0, MemCapMB: 1 << 20, Weight: 0.7},
		{Name: "small", Capacity: 0.5, MemCapMB: 1 << 19, Weight: 0.3},
	}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed * 977))
			c := New(Config{Nodes: 5, GPUsPerNode: 3, Classes: classes})
			funcs := []string{"bert", "resnet", "llama", "gpt2", "vgg"}
			var live []*Placement
			onGPU := map[*Placement]*GPU{}
			forget := func(p *Placement) {
				delete(onGPU, p)
				if i := slices.Index(live, p); i >= 0 {
					live = slices.Delete(live, i, i+1)
				}
			}
			steps := 500
			if testing.Short() {
				steps = 150
			}
			for step := 0; step < steps; step++ {
				switch op := rng.Intn(12); {
				case op < 5 || (len(live) == 0 && op < 8): // place
					g := c.gpus[rng.Intn(len(c.gpus))]
					p := &Placement{
						Instance: fmt.Sprintf("i%d", step),
						Func:     funcs[rng.Intn(len(funcs))],
						Req:      float64(rng.Intn(1000)) / 999 * g.Capacity,
						Lim:      rng.Float64() * 1.5,
						MemMB:    float64(rng.Intn(4096)),
					}
					// Place refuses failed GPUs; draining accepts direct
					// placements (the scheduler, not the inventory, is
					// the drain gate) — both paths get exercised.
					if err := g.Place(p); err == nil {
						live = append(live, p)
						onGPU[p] = g
					} else if g.Health() != Failed {
						t.Fatalf("step %d: place on %s (%s) failed: %v", step, g.ID, g.Health(), err)
					}
				case op < 8: // remove one
					i := rng.Intn(len(live))
					p := live[i]
					onGPU[p].Remove(p)
					forget(p)
				case op < 9: // fail a node, evicting its placements
					n := c.Nodes[rng.Intn(len(c.Nodes))]
					evicted := c.FailNode(n)
					for _, p := range evicted {
						forget(p)
					}
					for _, g := range n.GPUs {
						if g.Health() != Failed || g.Active() {
							t.Fatalf("step %d: %s not quiesced by FailNode", step, g.ID)
						}
					}
				case op < 10: // drain a node, placements stay
					n := c.Nodes[rng.Intn(len(c.Nodes))]
					before := 0
					for _, g := range n.GPUs {
						before += len(g.Placements)
					}
					c.DrainNode(n)
					after := 0
					for _, g := range n.GPUs {
						after += len(g.Placements)
						if g.Schedulable() {
							t.Fatalf("step %d: %s schedulable after drain", step, g.ID)
						}
					}
					if before != after {
						t.Fatalf("step %d: drain changed placements %d→%d", step, before, after)
					}
				default: // join a node back
					n := c.Nodes[rng.Intn(len(c.Nodes))]
					c.JoinNode(n)
					for _, g := range n.GPUs {
						if !g.Schedulable() {
							t.Fatalf("step %d: %s not schedulable after join", step, g.ID)
						}
					}
				}
				checkIndexesConsistent(t, c, step)
			}
		})
	}
}

// TestOccupancyBucketConcurrentReaders reads every occupancy bucket from
// two goroutines at once, after every GPU has moved one bucket and half
// of them have left the index. A bucket read must not write, so under
// -race (make test-race-subsys covers this package) any write inside
// OccupancyBucket fails the test; both readers must also see the exact
// index.
func TestOccupancyBucketConcurrentReaders(t *testing.T) {
	c := New(Config{Nodes: 4, GPUsPerNode: 4})
	step := 1.0 / OccupancyBuckets
	for i, g := range c.gpus {
		if err := g.Place(&Placement{Instance: fmt.Sprintf("a%d", i), Func: "f", Req: 0.25, MemMB: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i, g := range c.gpus { // one bucket up
		if err := g.Place(&Placement{Instance: fmt.Sprintf("b%d", i), Func: "f", Req: step, MemMB: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i, g := range c.gpus { // empty every other GPU
		for i%2 == 1 && len(g.Placements) > 0 {
			g.Remove(g.Placements[len(g.Placements)-1])
		}
	}
	want := OccupancyBucketOf(0.25 + step)
	var wg sync.WaitGroup
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0
			for b := 0; b < OccupancyBuckets; b++ {
				for _, g := range c.OccupancyBucket(b) {
					if b != want || !g.Active() || g.pos%2 == 1 {
						t.Errorf("reader %d: %s (active=%v) in bucket %d, want only even GPUs in bucket %d",
							r, g.ID, g.Active(), b, want)
					}
					seen++
				}
			}
			if seen != len(c.gpus)/2 {
				t.Errorf("reader %d: index holds %d GPUs, want %d", r, seen, len(c.gpus)/2)
			}
		}()
	}
	wg.Wait()
}

// TestOccupancyBucketBoundaries pins the clamping behavior the
// schedulers' bucket-walk pruning relies on.
func TestOccupancyBucketBoundaries(t *testing.T) {
	cases := []struct {
		sum  float64
		want int
	}{
		{-1e-15, 0}, {0, 0}, {1.0 / OccupancyBuckets, 1},
		{0.25, 16}, {0.9999, OccupancyBuckets - 1},
		{1.0, OccupancyBuckets - 1}, {1.7, OccupancyBuckets - 1},
	}
	for _, tc := range cases {
		if got := OccupancyBucketOf(tc.sum); got != tc.want {
			t.Fatalf("OccupancyBucketOf(%v) = %d, want %d", tc.sum, got, tc.want)
		}
	}
}

// TestPostingIndexBasics covers the eager 0↔1 transitions directly:
// replicas of one function on a GPU must not duplicate posting entries,
// and the last replica leaving must drop the GPU (and eventually the
// key).
func TestPostingIndexBasics(t *testing.T) {
	c := New(Config{Nodes: 1, GPUsPerNode: 3})
	g0, g2 := c.gpus[0], c.gpus[2]
	p1 := &Placement{Instance: "a", Func: "f", Req: 0.2, MemMB: 10}
	p2 := &Placement{Instance: "b", Func: "f", Req: 0.2, MemMB: 10}
	p3 := &Placement{Instance: "c", Func: "f", Req: 0.2, MemMB: 10}
	if err := g2.Place(p1); err != nil {
		t.Fatal(err)
	}
	if err := g0.Place(p2); err != nil {
		t.Fatal(err)
	}
	if err := g0.Place(p3); err != nil { // second replica: no new entry
		t.Fatal(err)
	}
	if got := c.FuncGPUs("f"); len(got) != 2 || got[0] != g0 || got[1] != g2 {
		t.Fatalf("posting list wrong: %v", got)
	}
	g0.Remove(p2) // one replica left on g0: entry stays
	if got := c.FuncGPUs("f"); len(got) != 2 {
		t.Fatalf("posting list dropped a still-hosting GPU: %v", got)
	}
	g0.Remove(p3)
	if got := c.FuncGPUs("f"); len(got) != 1 || got[0] != g2 {
		t.Fatalf("posting list after drain: %v", got)
	}
	g2.Remove(p1)
	if c.FuncGPUs("f") != nil {
		t.Fatal("posting key must be deleted with the last placement")
	}
}

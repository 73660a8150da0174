// Package cluster maintains the node/GPU inventory and the ⟨request,
// limit⟩/memory bookkeeping that Dilu's scheduler (Algorithm 1) operates
// on, along with the fragmentation and occupancy metrics reported in
// Figures 2 and 17.
//
// A GPU entry can optionally carry a live gpu.Device for kernel-level
// experiments; placement-only simulations (the 1,000-node run of §5.5)
// leave it nil and work purely on quota accounting.
//
// The inventory keeps incremental indexes so the scheduler hot path does
// no O(cluster) work: the active-GPU set is maintained (in inventory
// order) on every placement transition, the first-inactive lookup is a
// lazy min-heap over inventory positions, and per-GPU function
// membership is counted instead of rescanned. Two further indexes make
// placement sub-linear in cluster size: a function→hosting-GPUs posting
// index (FuncGPUs, kept in inventory order) lets workload-affinity
// lookups enumerate only the GPUs that actually host a function, and an
// occupancy index (OccupancyBucket) keeps each active GPU in exactly the
// bucket of its current ΣReq so best-fit scans touch only feasible
// occupancy bands.
package cluster

import (
	"fmt"
	"slices"

	"dilu/internal/gpu"
)

// Placement records one instance's resource reservation on a GPU.
type Placement struct {
	Instance string
	Func     string
	Req      float64 // SM request quota as allocated by the scheduler
	Lim      float64 // SM limit quota
	MemMB    float64
	// TrueReq is the profiled request quota — the instance's actual
	// compute need regardless of how generously the scheduler allocated
	// (Exclusive allocates 1.0 for a 0.3-need instance). Fragmentation
	// accounting uses it; zero falls back to Req.
	TrueReq float64
	// KVMB is the KV-cache slice of MemMB, maintained by ReserveKV/
	// ReleaseKV. Remove reconciles it so an eviction racing a token-level
	// release (node failure before instance abort) never double-counts.
	KVMB float64
}

// trueReq returns the actual compute need of the placement.
func (p *Placement) trueReq() float64 {
	if p.TrueReq > 0 {
		return p.TrueReq
	}
	return p.Req
}

// Health is a GPU's lifecycle state. Healthy GPUs accept placements;
// Draining GPUs keep their existing placements but take no new ones
// (rolling upgrades); Failed GPUs hold nothing — FailNode evicts their
// placements for the caller to reschedule. Quarantined GPUs are the
// gray-failure analogue of Draining: ejected from the schedulable
// indexes by the health monitor on observed slowdown/error outliers,
// existing placements migrated make-before-break, readmitted when a
// probe comes back clean.
type Health uint8

const (
	Healthy Health = iota
	Draining
	Failed
	Quarantined
)

func (h Health) String() string {
	switch h {
	case Draining:
		return "draining"
	case Failed:
		return "failed"
	case Quarantined:
		return "quarantined"
	}
	return "healthy"
}

// GPUClass describes one device generation of a heterogeneous fleet.
// Capacity is relative compute throughput (1.0 = the baseline device the
// profiler's SM quotas are expressed against); a 0.5-capacity GPU is
// full at ΣReq 0.5. Quota feasibility and the occupancy index work on
// normalized utilization ΣReq/Capacity so mixed fleets share one scale.
type GPUClass struct {
	Name     string
	Capacity float64 // relative compute capacity; <=0 defaults to 1.0
	MemCapMB float64 // per-class memory; <=0 defaults to Config.MemCapMB
	Weight   float64 // share of nodes assigned to the class; <=0 means 1
}

// GPU is one schedulable device slot.
type GPU struct {
	ID    string
	Node  *Node
	Index int
	Dev   *gpu.Device // nil in placement-only simulations

	// Class and Capacity identify the GPU's device generation in a
	// heterogeneous fleet; Capacity is 1.0 on homogeneous clusters.
	Class    string
	Capacity float64

	MemCapMB   float64
	SumReq     float64
	SumLim     float64
	SumTrueReq float64
	MemUsedMB  float64
	// KVUsedMB is the slice of MemUsedMB currently held by KV caches —
	// variable-size reservations grown and shrunk token-by-token via
	// ReserveKV/ReleaseKV, always contained in some placement's MemMB.
	KVUsedMB   float64
	Placements []*Placement

	health   Health
	classIdx int

	// clu and pos link the GPU back to its cluster's indexes; nil/0 for
	// GPUs constructed outside New (index maintenance is then skipped).
	clu *Cluster
	pos int
	// funcCounts counts placements per function, making HostsFunc O(1).
	funcCounts map[string]int
	// occIdx and occSlot locate the GPU in the occupancy index: it sits
	// at c.occs[occIdx][occSlot]. occIdx is -1 while the GPU is in no
	// bucket (inactive).
	occIdx  int
	occSlot int
}

// Active reports whether any instance is placed on the GPU.
func (g *GPU) Active() bool { return len(g.Placements) > 0 }

// Health returns the GPU's lifecycle state.
func (g *GPU) Health() Health { return g.health }

// Schedulable reports whether the GPU accepts new placements: healthy,
// neither draining nor failed.
func (g *GPU) Schedulable() bool { return g.health == Healthy }

// Util returns the GPU's normalized compute utilization ΣReq/Capacity —
// the occupancy measure the index buckets by. On a capacity-1.0 GPU it
// equals ΣReq exactly (x/1.0 is bit-identical to x), so homogeneous
// fleets behave as before normalization.
func (g *GPU) Util() float64 {
	if g.Capacity > 0 {
		return g.SumReq / g.Capacity
	}
	return g.SumReq
}

// Pos returns the GPU's position in the cluster inventory (the stable
// scan order of Cluster.GPUs); zero for GPUs built outside New.
func (g *GPU) Pos() int { return g.pos }

// Place reserves the placement's quotas on the GPU. Feasibility is the
// scheduler's concern; Place only refuses memory overflow — mirroring
// constraint (4) — and failed devices, which physically cannot host.
func (g *GPU) Place(p *Placement) error {
	if g.health == Failed {
		return fmt.Errorf("cluster: gpu %s has failed", g.ID)
	}
	if g.MemUsedMB+p.MemMB > g.MemCapMB {
		return fmt.Errorf("cluster: gpu %s memory overflow (%.0f+%.0f > %.0f MB)",
			g.ID, g.MemUsedMB, p.MemMB, g.MemCapMB)
	}
	g.SumReq += p.Req
	g.SumLim += p.Lim
	g.SumTrueReq += p.trueReq()
	g.MemUsedMB += p.MemMB
	g.Placements = append(g.Placements, p)
	if g.funcCounts == nil {
		g.funcCounts = make(map[string]int, 4)
	}
	g.funcCounts[p.Func]++
	if g.clu != nil {
		if len(g.Placements) == 1 {
			g.clu.noteActivated(g)
		}
		if g.funcCounts[p.Func] == 1 {
			g.clu.notePostingAdd(p.Func, g)
		}
		g.clu.noteOccupancy(g)
	}
	return nil
}

// Remove releases a placement's reservation.
func (g *GPU) Remove(p *Placement) {
	for i, q := range g.Placements {
		if q == p {
			g.Placements = slices.Delete(g.Placements, i, i+1)
			g.SumReq -= p.Req
			g.SumLim -= p.Lim
			g.SumTrueReq -= p.trueReq()
			g.MemUsedMB -= p.MemMB
			// The KV charge leaves inside p.MemMB; reconcile the KV view
			// and zero the placement's slice so a late ReleaseKV no-ops.
			g.KVUsedMB -= p.KVMB
			p.KVMB = 0
			if g.funcCounts[p.Func]--; g.funcCounts[p.Func] <= 0 {
				delete(g.funcCounts, p.Func)
				if g.clu != nil {
					g.clu.notePostingRemove(p.Func, g)
				}
			}
			if g.clu != nil {
				if len(g.Placements) == 0 {
					// Deactivation also takes the GPU out of its
					// occupancy bucket.
					g.clu.noteDeactivated(g)
				} else {
					g.clu.noteOccupancy(g)
				}
			}
			return
		}
	}
}

// ReserveKV grows placement p's reservation by mb of KV-cache memory.
// It refuses (false) when the GPU lacks headroom — the cache-full signal
// that forces token-level serving to preempt or shed. On success the
// charge lands in p.MemMB, g.MemUsedMB, and g.KVUsedMB together, so the
// quota-conservation view (Σ placement MemMB == MemUsedMB) is preserved.
// The occupancy index is untouched: it buckets by ΣReq only.
func (g *GPU) ReserveKV(p *Placement, mb float64) bool {
	if mb <= 0 {
		return true
	}
	if g.MemUsedMB+mb > g.MemCapMB {
		return false
	}
	p.MemMB += mb
	p.KVMB += mb
	g.MemUsedMB += mb
	g.KVUsedMB += mb
	return true
}

// ReleaseKV returns mb of KV-cache memory from placement p (sequence
// completion, preemption, or instance teardown before Remove). The
// release clamps to the placement's live KV charge: a placement already
// evicted by Remove (node failure racing an instance abort) has nothing
// left to release here.
func (g *GPU) ReleaseKV(p *Placement, mb float64) {
	if mb > p.KVMB {
		mb = p.KVMB
	}
	if mb <= 0 {
		return
	}
	p.MemMB -= mb
	p.KVMB -= mb
	g.MemUsedMB -= mb
	g.KVUsedMB -= mb
}

// HostsFunc reports whether any placement belongs to the function.
func (g *GPU) HostsFunc(fn string) bool { return g.funcCounts[fn] > 0 }

// FuncCounts returns the per-function placement counts. The map is the
// GPU's live index — callers must treat it as read-only.
func (g *GPU) FuncCounts() map[string]int { return g.funcCounts }

// Funcs returns the set of function names placed on the GPU (a fresh
// copy; FuncCounts avoids the allocation on hot paths).
func (g *GPU) Funcs() map[string]bool {
	out := make(map[string]bool, len(g.funcCounts))
	for f := range g.funcCounts {
		out[f] = true
	}
	return out
}

// Node groups the GPUs of one server.
type Node struct {
	ID   string
	GPUs []*GPU

	// Kernels is the node-local kernel/JIT artifact cache: nil unless
	// the serving plane enables kernel caches. Together
	// with the FuncGPUs posting index (which tracks *current* hosting)
	// it forms the cache-affinity signal schedulers consult — the cache
	// remembers functions the node served *before*, surviving teardown.
	Kernels *gpu.KernelCache
}

// KernelsWarm reports whether the node's kernel cache (if any) holds
// compiled kernels for the function. Safe to call without a cache: a
// nil cache is never warm, so affinity tie-breaking is inert.
func (n *Node) KernelsWarm(fn string) bool {
	return n.Kernels != nil && n.Kernels.Warm(fn)
}

// Cluster is the full inventory.
type Cluster struct {
	Nodes []*Node
	gpus  []*GPU

	// active holds the GPUs with at least one placement, sorted by
	// inventory position — the same order a linear scan would produce.
	active []*GPU
	// inactive is a min-heap of inventory positions of GPUs believed
	// inactive, with lazy deletion: activation leaves a stale entry that
	// FirstInactiveFit discards when it surfaces. inHeap tracks which
	// positions currently have an entry so a GPU cycling through
	// activations never accumulates duplicates.
	inactive []int
	inHeap   []bool
	// takenScratch backs AppendInactive's pop-and-restore, reused across
	// calls (the cluster's mutating lookups are single-threaded).
	takenScratch []int

	// posting maps a function name to the GPUs currently hosting at
	// least one of its placements, in inventory order — the posting list
	// workload-affinity lookups enumerate instead of scanning all active
	// GPUs. Lists are maintained eagerly on 0↔1 per-GPU count
	// transitions, and a function's key is deleted when its last
	// placement leaves so the map tracks live functions only.
	posting map[string][]*GPU
	// occs buckets active GPUs by normalized utilization ΣReq/Capacity
	// (bucket b holds utilization in [b/OccupancyBuckets,
	// (b+1)/OccupancyBuckets), clamped into the top bucket): the occupancy
	// index best-fit scans walk from the most-occupied feasible bucket
	// downward instead of over all active GPUs. The index is exact: every
	// active GPU sits in exactly one bucket, the one for its current
	// utilization, at slot GPU.occSlot. A ΣReq change that crosses a
	// bucket boundary swap-removes the GPU from its old bucket, and
	// deactivation removes it. On a homogeneous (capacity 1.0) fleet,
	// utilization equals ΣReq bit-for-bit.
	occs [OccupancyBuckets][]*GPU

	// classes records the fleet's device generations (one synthetic
	// entry for homogeneous clusters); hetero is true when classes
	// differ in capacity or memory. min/maxCap bound GPU capacities and
	// back the schedulers' bucket-walk pruning bounds.
	classes []GPUClass
	hetero  bool
	minCap  float64
	maxCap  float64

	// retired counts GPUs out of service (draining or failed);
	// retiredActive those of them still holding placements (only
	// draining GPUs can). SchedulableInactive derives from both.
	retired       int
	retiredActive int
	// occupiedCap sums the capacities of active GPUs (capacity-weighted
	// occupancy, the cost measure on mixed fleets).
	occupiedCap float64
}

// Config controls cluster construction.
type Config struct {
	Nodes       int
	GPUsPerNode int
	MemCapMB    float64 // zero defaults to A100-40GB
	WithDevices bool    // allocate live gpu.Devices for kernel-level runs
	// Classes makes the fleet heterogeneous: nodes are assigned to
	// classes by a deterministic weighted interleave (largest-deficit
	// round-robin), so device generations mix through the inventory the
	// way racks mix in a real fleet — position-ordered policies like
	// first-inactive see both generations early instead of an all-big
	// prefix. A node carries one GPU generation. Empty means one
	// uniform capacity-1.0 class — the pre-heterogeneity behavior.
	Classes []GPUClass
}

// classAssign returns each node's class index under largest-deficit
// weighted round-robin: node n goes to the class whose assigned share
// lags its weight the most (ties toward the earlier class). A 70/30
// split yields B B S B B B S B B S …, deterministically.
func classAssign(classes []GPUClass, nodes int) []int {
	total := 0.0
	weights := make([]float64, len(classes))
	for i, cl := range classes {
		w := cl.Weight
		if w <= 0 {
			w = 1
		}
		weights[i] = w
		total += w
	}
	out := make([]int, nodes)
	assigned := make([]float64, len(classes))
	for n := 0; n < nodes; n++ {
		best, bestDeficit := 0, -1.0
		for i, w := range weights {
			deficit := w/total*float64(n+1) - assigned[i]
			if deficit > bestDeficit {
				best, bestDeficit = i, deficit
			}
		}
		assigned[best]++
		out[n] = best
	}
	return out
}

// New builds a cluster.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.GPUsPerNode <= 0 {
		cfg.GPUsPerNode = 4
	}
	if cfg.MemCapMB <= 0 {
		cfg.MemCapMB = gpu.DefaultMemoryMB
	}
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = []GPUClass{{Name: "uniform", Capacity: 1, MemCapMB: cfg.MemCapMB, Weight: 1}}
	}
	classes = slices.Clone(classes)
	for i := range classes {
		if classes[i].Capacity <= 0 {
			classes[i].Capacity = 1
		}
		if classes[i].MemCapMB <= 0 {
			classes[i].MemCapMB = cfg.MemCapMB
		}
		if classes[i].Name == "" {
			classes[i].Name = fmt.Sprintf("class-%d", i)
		}
	}
	c := &Cluster{
		posting: make(map[string][]*GPU),
		classes: classes,
	}
	c.minCap, c.maxCap = classes[0].Capacity, classes[0].Capacity
	for _, cl := range classes {
		if cl.Capacity < c.minCap {
			c.minCap = cl.Capacity
		}
		if cl.Capacity > c.maxCap {
			c.maxCap = cl.Capacity
		}
		if cl.Capacity != classes[0].Capacity || cl.MemCapMB != classes[0].MemCapMB {
			c.hetero = true
		}
	}
	assign := classAssign(classes, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		ci := assign[n]
		cl := classes[ci]
		node := &Node{ID: fmt.Sprintf("node-%d", n)}
		for i := 0; i < cfg.GPUsPerNode; i++ {
			g := &GPU{
				ID:       fmt.Sprintf("node-%d/gpu-%d", n, i),
				Node:     node,
				Index:    i,
				Class:    cl.Name,
				Capacity: cl.Capacity,
				MemCapMB: cl.MemCapMB,
				clu:      c,
				pos:      len(c.gpus),
				classIdx: ci,
				occIdx:   -1,
			}
			if cfg.WithDevices {
				g.Dev = gpu.NewDevice(g.ID)
				g.Dev.MemoryMB = cl.MemCapMB
			}
			node.GPUs = append(node.GPUs, g)
			c.gpus = append(c.gpus, g)
		}
		c.Nodes = append(c.Nodes, node)
	}
	// Every GPU starts inactive; positions are pushed in order, which is
	// already a valid min-heap.
	c.inactive = make([]int, len(c.gpus))
	c.inHeap = make([]bool, len(c.gpus))
	for i := range c.inactive {
		c.inactive[i] = i
		c.inHeap[i] = true
	}
	return c
}

// activeIndex returns the insertion point of pos in the active list
// (lower bound by inventory position).
func (c *Cluster) activeIndex(pos int) int {
	lo, hi := 0, len(c.active)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.active[mid].pos < pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// noteActivated inserts g into the active list at its inventory position.
// The matching inactive-heap entry is left in place and lazily discarded.
func (c *Cluster) noteActivated(g *GPU) {
	lo := c.activeIndex(g.pos)
	c.active = append(c.active, nil)
	copy(c.active[lo+1:], c.active[lo:])
	c.active[lo] = g
	c.occupiedCap += g.Capacity
	if !g.Schedulable() {
		c.retiredActive++
	}
}

// noteDeactivated removes g from the active list and its occupancy
// bucket, and returns its position to the inactive heap.
func (c *Cluster) noteDeactivated(g *GPU) {
	lo := c.activeIndex(g.pos)
	if lo < len(c.active) && c.active[lo] == g {
		c.active = slices.Delete(c.active, lo, lo+1)
	}
	c.occRemove(g)
	c.occupiedCap -= g.Capacity
	if !g.Schedulable() {
		c.retiredActive--
	}
	// A stale entry from before the GPU's last activation may still sit
	// in the heap; it is valid again now, so don't add a duplicate.
	if !c.inHeap[g.pos] {
		c.inHeap[g.pos] = true
		c.pushInactive(g.pos)
	}
}

func (c *Cluster) pushInactive(pos int) {
	c.inactive = append(c.inactive, pos)
	i := len(c.inactive) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if c.inactive[parent] <= c.inactive[i] {
			break
		}
		c.inactive[i], c.inactive[parent] = c.inactive[parent], c.inactive[i]
		i = parent
	}
}

func (c *Cluster) popInactive() int {
	h := c.inactive
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	c.inactive = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h[l] < h[min] {
			min = l
		}
		if r < n && h[r] < h[min] {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// GPUs returns every GPU in the cluster, in stable order.
func (c *Cluster) GPUs() []*GPU { return c.gpus }

// ActiveGPUs returns GPUs hosting at least one placement (the 𝐺_act set
// of Algorithm 1), in inventory order. The slice is the cluster's live
// index — callers must treat it as read-only and must not hold it across
// placement changes.
func (c *Cluster) ActiveGPUs() []*GPU { return c.active }

// SchedulableInactive returns the number of healthy GPUs with no
// placements — the fresh-GPU supply the schedulers can actually draw
// from. On a churn-free cluster it counts every GPU with no placements.
func (c *Cluster) SchedulableInactive() int {
	return len(c.gpus) - len(c.active) - (c.retired - c.retiredActive)
}

// FirstInactiveFit returns the earliest schedulable inactive GPU whose
// class fits the need — Capacity ≥ minCap (within quota epsilon) and
// MemCapMB ≥ memMB — or nil. Too-small GPUs are skipped but stay in the
// heap (they remain valid fresh candidates for smaller requests). A zero
// need fits every GPU, so FirstInactiveFit(0, 0) is the earliest
// schedulable inactive GPU in inventory order; on a homogeneous fleet
// nothing is ever skipped and every need gets that GPU.
func (c *Cluster) FirstInactiveFit(minCap, memMB float64) *GPU {
	taken := c.takenScratch[:0]
	var found *GPU
	for len(c.inactive) > 0 {
		g := c.gpus[c.inactive[0]]
		if g.Active() || !g.Schedulable() {
			c.inHeap[c.popInactive()] = false // stale or retired entry
			continue
		}
		if minCap <= g.Capacity+1e-9 && memMB <= g.MemCapMB {
			found = g
			break
		}
		taken = append(taken, c.popInactive()) // too small for this need only
	}
	for _, pos := range taken {
		c.pushInactive(pos)
	}
	c.takenScratch = taken
	return found
}

// AppendInactive appends up to k schedulable inactive GPUs in inventory
// order to dst and returns the extended slice.
func (c *Cluster) AppendInactive(dst []*GPU, k int) []*GPU {
	if k <= 0 {
		return dst
	}
	taken := c.takenScratch[:0]
	for len(taken) < k && len(c.inactive) > 0 {
		pos := c.popInactive()
		if g := c.gpus[pos]; g.Active() || !g.Schedulable() {
			c.inHeap[pos] = false // stale or retired entry
			continue
		}
		taken = append(taken, pos)
		dst = append(dst, c.gpus[pos])
	}
	for _, pos := range taken {
		c.pushInactive(pos) // still inactive: return to the heap
	}
	c.takenScratch = taken
	return dst
}

// OccupiedCount returns the number of active GPUs — the scheduling
// objective Σ g_i of Equation (1).
func (c *Cluster) OccupiedCount() int { return len(c.active) }

// OccupiedCapacity returns the summed compute capacity of active GPUs —
// the capacity-weighted occupancy that prices mixed fleets (a 0.5-
// capacity GPU costs half a baseline device). Equals OccupiedCount on
// homogeneous clusters.
func (c *Cluster) OccupiedCapacity() float64 { return c.occupiedCap }

// Heterogeneous reports whether the fleet mixes GPU classes differing in
// capacity or memory.
func (c *Cluster) Heterogeneous() bool { return c.hetero }

// MinCapacity and MaxCapacity bound GPU compute capacities over the
// inventory; the schedulers' bucket-walk pruning bounds use them. Both
// are 1.0 on homogeneous clusters.
func (c *Cluster) MinCapacity() float64 { return c.minCap }

// MaxCapacity returns the largest GPU capacity in the fleet.
func (c *Cluster) MaxCapacity() float64 { return c.maxCap }

// ---------------------------------------------------------------------------
// Node lifecycle: failures, drains, joins.

// FailNode takes a node out of service abruptly: every placement on its
// GPUs is evicted through the normal Remove path (so the active list,
// free heap, posting index, and occupancy buckets stay consistent) and
// returned to the caller as rescheduling work. The GPUs stop being
// offered by every index until JoinNode restores them.
func (c *Cluster) FailNode(n *Node) []*Placement {
	var evicted []*Placement
	for _, g := range n.GPUs {
		for len(g.Placements) > 0 {
			p := g.Placements[len(g.Placements)-1]
			g.Remove(p)
			evicted = append(evicted, p)
		}
		c.setHealth(g, Failed)
	}
	return evicted
}

// DrainNode stops new placements on a node for a planned removal.
// Existing placements stay until their owners release (or migrate) them;
// the node's GPUs are withheld from the fresh-GPU indexes immediately.
func (c *Cluster) DrainNode(n *Node) {
	for _, g := range n.GPUs {
		c.setHealth(g, Draining)
	}
}

// JoinNode returns a failed or drained node to service: its idle GPUs
// re-enter the free heap and new placements are accepted again.
func (c *Cluster) JoinNode(n *Node) {
	for _, g := range n.GPUs {
		c.setHealth(g, Healthy)
	}
}

// QuarantineGPU ejects one GPU from the schedulable indexes on a
// health-monitor verdict. Like DrainNode the existing placements stay
// for make-before-break migration; unlike DrainNode the unit is a
// single device — gray failures are per-GPU, not per-node.
func (c *Cluster) QuarantineGPU(g *GPU) {
	c.setHealth(g, Quarantined)
}

// ReadmitGPU returns a quarantined GPU to service after a clean probe.
// It refuses to touch Draining/Failed GPUs — those belong to the churn
// lifecycle (JoinNode), not the health monitor.
func (c *Cluster) ReadmitGPU(g *GPU) {
	if g.health == Quarantined {
		c.setHealth(g, Healthy)
	}
}

// setHealth transitions one GPU's lifecycle state, keeping the retired
// counters and the free heap consistent. Placement eviction is the
// caller's job (FailNode evicts before marking).
func (c *Cluster) setHealth(g *GPU, h Health) {
	if g.health == h {
		return
	}
	switch {
	case g.health == Healthy: // leaving service
		c.retired++
		if g.Active() {
			c.retiredActive++
		}
	case h == Healthy: // rejoining
		c.retired--
		if g.Active() {
			c.retiredActive--
		} else if !c.inHeap[g.pos] {
			// The GPU's heap entry was discarded while it was retired;
			// restore it so FirstInactiveFit can offer the GPU again.
			c.inHeap[g.pos] = true
			c.pushInactive(g.pos)
		}
		// Draining↔Failed transitions change neither counter.
	}
	g.health = h
}

// ---------------------------------------------------------------------------
// Function posting index.

// FuncGPUs returns the GPUs hosting at least one placement of fn, in
// inventory order. The slice is the cluster's live posting list —
// callers must treat it as read-only and must not hold it across
// placement changes. Nil when no GPU hosts the function.
func (c *Cluster) FuncGPUs(fn string) []*GPU { return c.posting[fn] }

// postingIndex returns the insertion point of pos in fn's posting list
// (lower bound by inventory position).
func postingIndex(list []*GPU, pos int) int {
	lo, _ := slices.BinarySearchFunc(list, pos, func(g *GPU, p int) int { return g.pos - p })
	return lo
}

// notePostingAdd records that g now hosts fn (its per-GPU count went
// 0→1), keeping the posting list in inventory order.
func (c *Cluster) notePostingAdd(fn string, g *GPU) {
	list := c.posting[fn]
	c.posting[fn] = slices.Insert(list, postingIndex(list, g.pos), g)
}

// notePostingRemove records that g no longer hosts fn (count 1→0). The
// key is deleted when the list empties so the map never accumulates
// dead function names (§5.5-style mixes use per-instance names).
func (c *Cluster) notePostingRemove(fn string, g *GPU) {
	list := c.posting[fn]
	lo := postingIndex(list, g.pos)
	if lo >= len(list) || list[lo] != g {
		return
	}
	list = slices.Delete(list, lo, lo+1)
	if len(list) == 0 {
		delete(c.posting, fn)
	} else {
		c.posting[fn] = list
	}
}

// ---------------------------------------------------------------------------
// Occupancy index.

// OccupancyBuckets is the resolution of the occupancy index: active
// GPUs are bucketed by normalized utilization (ΣReq/Capacity) into
// bands of width 1/OccupancyBuckets, with everything at or above 1.0
// clamped into the top bucket.
const OccupancyBuckets = 64

// OccupancyBucketOf returns the bucket index a GPU with the given
// normalized utilization belongs to. Negative inputs (float residue
// after removals) clamp to bucket 0, values ≥ 1 to the top bucket.
func OccupancyBucketOf(util float64) int {
	idx := int(util * OccupancyBuckets)
	if idx < 0 {
		return 0
	}
	if idx >= OccupancyBuckets {
		return OccupancyBuckets - 1
	}
	return idx
}

// noteOccupancy moves g to the occupancy bucket of its current
// normalized utilization, unless it already sits there.
func (c *Cluster) noteOccupancy(g *GPU) {
	idx := OccupancyBucketOf(g.Util())
	if idx == g.occIdx {
		return
	}
	c.occRemove(g)
	g.occIdx, g.occSlot = idx, len(c.occs[idx])
	c.occs[idx] = append(c.occs[idx], g)
}

// occRemove takes g out of its occupancy bucket in O(1): the bucket's
// last GPU moves into g's slot, and the vacated tail slot is cleared so
// the backing array does not retain g. A GPU in no bucket is left as is.
func (c *Cluster) occRemove(g *GPU) {
	if g.occIdx < 0 {
		return
	}
	bucket := c.occs[g.occIdx]
	last := len(bucket) - 1
	moved := bucket[last]
	bucket[g.occSlot], moved.occSlot = moved, g.occSlot
	bucket[last] = nil
	c.occs[g.occIdx] = bucket[:last]
	g.occIdx = -1
}

// OccupancyBucket returns the active GPUs whose current normalized
// utilization falls in bucket b. It only reads, so any number of
// goroutines may call it while no placement changes. Order within a
// bucket is not specified — consumers needing the tie order of an
// inventory scan must rank by (key, Pos()) lexicographically. The
// returned slice is the cluster's live index: read-only, not to be held
// across placement changes.
func (c *Cluster) OccupancyBucket(b int) []*GPU { return c.occs[b] }

// Stats aggregates the fragmentation view of the cluster.
type Stats struct {
	OccupiedGPUs int
	TotalGPUs    int
	// SMFrag is the mean normalized SM share of active GPUs not covered
	// by any instance's true compute need (1 − ΣTrueReq/Capacity,
	// floored at 0) — the dark bars of Figure 17. Exclusive allocation
	// shows high SMFrag because whole GPUs back fractional needs.
	SMFrag float64
	// MemFrag is the mean unreserved memory share across active GPUs —
	// the striped bars of Figure 17.
	MemFrag float64
	// MeanReq and MeanMem are allocation densities of active GPUs
	// (normalized utilization and memory share).
	MeanReq float64
	MeanMem float64
}

// Snapshot computes the current fragmentation stats.
func (c *Cluster) Snapshot() Stats {
	st := Stats{TotalGPUs: len(c.gpus)}
	for _, g := range c.gpus {
		if !g.Active() {
			continue
		}
		st.OccupiedGPUs++
		smFree := 1 - g.SumTrueReq/g.Capacity
		if smFree < 0 {
			smFree = 0
		}
		st.SMFrag += smFree
		st.MemFrag += 1 - g.MemUsedMB/g.MemCapMB
		st.MeanReq += g.Util()
		st.MeanMem += g.MemUsedMB / g.MemCapMB
	}
	if st.OccupiedGPUs > 0 {
		n := float64(st.OccupiedGPUs)
		st.SMFrag /= n
		st.MemFrag /= n
		st.MeanReq /= n
		st.MeanMem /= n
	}
	return st
}

// ClassStat is the per-device-generation slice of the fleet view.
type ClassStat struct {
	Name     string
	Capacity float64
	MemCapMB float64
	Total    int
	Occupied int
	Retired  int // draining or failed
	SumReq   float64
}

// ClassStats aggregates occupancy per GPU class, in class declaration
// order (one synthetic "uniform" entry on homogeneous clusters).
func (c *Cluster) ClassStats() []ClassStat {
	out := make([]ClassStat, len(c.classes))
	for i, cl := range c.classes {
		out[i] = ClassStat{Name: cl.Name, Capacity: cl.Capacity, MemCapMB: cl.MemCapMB}
	}
	for _, g := range c.gpus {
		st := &out[g.classIdx]
		st.Total++
		if g.Active() {
			st.Occupied++
		}
		if !g.Schedulable() {
			st.Retired++
		}
		st.SumReq += g.SumReq
	}
	return out
}

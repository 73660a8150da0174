package gpu

import (
	"fmt"
	"slices"
)

// DefaultCapacityPerTick is the number of kernel-block units an A100-class
// device executes per 5 ms token period at 100% SM utilization. Work
// figures in the model catalog are calibrated against this constant.
const DefaultCapacityPerTick = 5000.0

// DefaultMemoryMB mirrors the A100-40GB cards of the paper's testbed.
const DefaultMemoryMB = 40 * 1024.0

// Device is one simulated GPU. Residents are the execution contexts of
// collocated function instances; each tick the device executes up to its
// block capacity across residents, honoring token grants and resolving SM
// contention by proportional waterfilling.
type Device struct {
	ID       string
	Capacity float64 // block-units per tick at full SM
	MemoryMB float64

	residents []*Resident
	usedMem   float64
	// want is ExecuteTick's per-resident scratch, reused across ticks so
	// the 5 ms execution loop does not allocate.
	want []float64

	// slow is the gray-failure straggler factor: when > 1 every usable
	// rate is divided by it, so the device does one tick's work in slow
	// ticks while still reporting nominal Capacity to the scheduler —
	// exactly the signal mismatch that makes stragglers gray. Zero (the
	// untouched default) and 1 mean full speed.
	slow float64

	// lastOccupancy is the total SM share consumed in the previous
	// ExecuteTick, in [0,1]. Exposed for utilization/fragmentation traces.
	lastOccupancy float64
	// lastExecuted is the total blocks executed in the previous tick.
	lastExecuted float64
	// totalExecuted accumulates blocks over the device lifetime.
	totalExecuted float64
	ticks         int64
	occupancySum  float64
}

// NewDevice returns a device with default A100-like capacity and memory.
func NewDevice(id string) *Device {
	return &Device{ID: id, Capacity: DefaultCapacityPerTick, MemoryMB: DefaultMemoryMB}
}

// Resident is one instance's execution context on a device.
type Resident struct {
	dev   *Device
	ID    string
	SatK  float64 // saturation constant for the current kernel mix
	MemMB float64

	pending float64 // block demand not yet executed
	granted float64 // token grant for the current tick, in blocks

	executedLast  float64 // blocks executed in the previous tick
	demandLast    float64 // pending at the start of the previous tick
	grantedLast   float64
	usableLast    float64 // grant- and contention-bounded rate last tick
	totalLaunched float64 // cumulative executed blocks (Fig. 13/14 traces)

	// curve is SatK's saturation curve, rebuilt by ExecuteTick when
	// SatK changes. effS/eff memoize Eff(curve, effS) at the last grant
	// share and wantY/wantInv EffInv(curve, wantY) at the last want:
	// the grant repeats on most ticks, so most ticks reuse both. The
	// zero memo is exact for every curve (both functions map 0 to 0),
	// which is what a curve change resets it to.
	curve          Curve
	effS, eff      float64
	wantY, wantInv float64

	detached bool
}

// Attach reserves memMB on the device and registers a resident. It fails
// when the device lacks free memory (constraint 4 of the scheduling
// objective).
func (d *Device) Attach(id string, memMB float64) (*Resident, error) {
	if d.usedMem+memMB > d.MemoryMB {
		return nil, fmt.Errorf("gpu %s: out of memory: used %.0f + %.0f > %.0f MB",
			d.ID, d.usedMem, memMB, d.MemoryMB)
	}
	r := &Resident{dev: d, ID: id, MemMB: memMB, SatK: 1}
	d.usedMem += memMB
	d.residents = append(d.residents, r)
	return r, nil
}

// Detach releases the resident's memory and removes it from the device.
func (d *Device) Detach(r *Resident) {
	if r == nil || r.detached || r.dev != d {
		return
	}
	r.detached = true
	d.usedMem -= r.MemMB
	for i, res := range d.residents {
		if res == r {
			d.residents = slices.Delete(d.residents, i, i+1)
			break
		}
	}
}

// GrowMem enlarges the resident's reservation in place (KV-cache growth
// during token-level decode). The caller is responsible for checking
// feasibility against the cluster's MemCapMB view first; the device
// mirrors the charge so its MemUsedMB stays consistent with placements.
func (r *Resident) GrowMem(mb float64) {
	if r == nil || r.detached || mb <= 0 {
		return
	}
	r.MemMB += mb
	r.dev.usedMem += mb
}

// ShrinkMem returns part of the resident's reservation (KV-cache release
// on sequence completion, preemption, or abort).
func (r *Resident) ShrinkMem(mb float64) {
	if r == nil || r.detached || mb <= 0 {
		return
	}
	r.MemMB -= mb
	r.dev.usedMem -= mb
}

// Residents returns the currently attached residents. The slice is the
// device's live bookkeeping — callers must treat it as read-only and must
// not hold it across Attach/Detach; use ResidentCount for hot-path
// presence checks.
func (d *Device) Residents() []*Resident { return d.residents }

// ResidentCount returns the number of attached residents without exposing
// the underlying slice.
func (d *Device) ResidentCount() int { return len(d.residents) }

// MemUsedMB returns reserved device memory.
func (d *Device) MemUsedMB() float64 { return d.usedMem }

// SetSlowdown sets the straggler factor applied to every resident's
// usable rate (f > 1 stretches execution f×; f ≤ 1 restores full
// speed). Fault injection's knob — the health monitor reads it back via
// Slowdown the way a DCGM-style per-GPU probe would observe degraded
// throughput.
func (d *Device) SetSlowdown(f float64) {
	if f <= 1 {
		f = 0
	}
	d.slow = f
}

// Slowdown returns the current straggler factor (1 when the device runs
// at full speed).
func (d *Device) Slowdown() float64 {
	if d.slow > 1 {
		return d.slow
	}
	return 1
}

// LastOccupancy returns the SM share consumed in the previous tick.
func (d *Device) LastOccupancy() float64 { return d.lastOccupancy }

// LastExecuted returns blocks executed in the previous tick.
func (d *Device) LastExecuted() float64 { return d.lastExecuted }

// TotalExecuted returns cumulative blocks executed.
func (d *Device) TotalExecuted() float64 { return d.totalExecuted }

// MeanOccupancy returns the average SM occupancy across all ticks so far.
func (d *Device) MeanOccupancy() float64 {
	if d.ticks == 0 {
		return 0
	}
	return d.occupancySum / float64(d.ticks)
}

// AddWork enqueues block demand for the resident.
func (r *Resident) AddWork(blocks float64) {
	if blocks > 0 {
		r.pending += blocks
	}
}

// ClearWork drops any not-yet-executed demand (instance termination or
// batch cancellation).
func (r *Resident) ClearWork() { r.pending = 0 }

// Pending returns the outstanding block demand.
func (r *Resident) Pending() float64 { return r.pending }

// SetGrant sets the token grant (in blocks) for the next tick.
func (r *Resident) SetGrant(tokens float64) {
	if tokens < 0 {
		tokens = 0
	}
	r.granted = tokens
}

// Grant returns the current token grant.
func (r *Resident) Grant() float64 { return r.granted }

// ExecutedLast returns blocks executed in the previous tick — the kernel
// launch rate R_current that RCKM's rate windows observe.
func (r *Resident) ExecutedLast() float64 { return r.executedLast }

// DemandLast returns the demand present at the start of the previous tick.
func (r *Resident) DemandLast() float64 { return r.demandLast }

// GrantedLast returns the grant that applied in the previous tick.
func (r *Resident) GrantedLast() float64 { return r.grantedLast }

// CompletionFraction estimates how far into the previous tick the
// resident's demand drained, for sub-tick latency interpolation. It
// returns 1 when the demand outlived the tick.
func (r *Resident) CompletionFraction() float64 {
	if r.pending > 0 || r.usableLast <= 0 {
		return 1
	}
	f := r.executedLast / r.usableLast
	if f > 1 {
		return 1
	}
	if f < 0 {
		return 0
	}
	return f
}

// TotalLaunched returns cumulative executed blocks.
func (r *Resident) TotalLaunched() float64 { return r.totalLaunched }

// Device returns the device the resident is attached to.
func (r *Resident) Device() *Device { return r.dev }

// ExecuteTick runs one 5 ms execution round. For each resident the usable
// rate is Capacity·eff(K, grant/Capacity), bounded by pending demand.
// When the summed SM occupancy implied by those rates exceeds the device,
// all residents are scaled back by a common factor (binary-searched
// waterfill), which is precisely the contention that inflates kernel
// launch cycles in the paper's §3.4.1 observation.
func (d *Device) ExecuteTick() {
	if cap(d.want) < len(d.residents) {
		d.want = make([]float64, len(d.residents))
	}
	want := d.want[:len(d.residents)]
	var totalOcc float64
	for i, r := range d.residents {
		if r.SatK != r.curve.K {
			r.curve = CurveOf(r.SatK)
			r.effS, r.eff, r.wantY, r.wantInv = 0, 0, 0, 0
		}
		r.demandLast = r.pending
		r.grantedLast = r.granted
		if s := r.granted / d.Capacity; s != r.effS {
			r.effS, r.eff = s, Eff(r.curve, s)
		}
		usable := d.Capacity * r.eff
		if d.slow > 1 { // straggler: stretch execution, keep nominal capacity
			usable /= d.slow
		}
		w := r.pending
		if w > usable {
			w = usable
		}
		want[i] = w
		if y := w / d.Capacity; y != r.wantY {
			r.wantY, r.wantInv = y, EffInv(r.curve, y)
		}
		totalOcc += r.wantInv
	}

	scale := 1.0
	if totalOcc > 1 {
		// Find the largest common scale λ with Σ occ(λ·want) ≤ 1.
		lo, hi := 0.0, 1.0
		for iter := 0; iter < 30; iter++ {
			mid := (lo + hi) / 2
			var occ float64
			for i, r := range d.residents {
				occ += EffInv(r.curve, mid*want[i]/d.Capacity)
			}
			if occ > 1 {
				hi = mid
			} else {
				lo = mid
			}
		}
		scale = lo
	}

	var executedTotal, occTotal float64
	for i, r := range d.residents {
		r.usableLast = d.Capacity * r.eff * scale
		if d.slow > 1 {
			r.usableLast /= d.slow
		}
		x := want[i] * scale
		if x > r.pending {
			x = r.pending
		}
		r.pending -= x
		r.executedLast = x
		r.totalLaunched += x
		executedTotal += x
		if x == want[i] {
			occTotal += r.wantInv
		} else {
			occTotal += EffInv(r.curve, x/d.Capacity)
		}
	}
	d.lastExecuted = executedTotal
	d.totalExecuted += executedTotal
	d.lastOccupancy = occTotal
	d.occupancySum += occTotal
	d.ticks++
}

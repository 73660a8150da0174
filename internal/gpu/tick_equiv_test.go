package gpu

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// This file is a differential guard for the memoized execution tick:
// refEff, refEffInv and refDevice.ExecuteTick are verbatim copies of the
// curve functions and the tick as they were before Curve and the
// per-resident memo existed (only the identifiers are renamed), and the
// tests drive both implementations through the same random inputs,
// requiring every observable to agree bit for bit. Keep the references
// as they are; change them only together with a deliberate change of
// the tick's semantics.

func refEff(k, s float64) float64 {
	if s <= 0 {
		return 0
	}
	if s >= 1 {
		return 1
	}
	if k <= 0 {
		return 1 // degenerate: fully saturated at any share
	}
	if k >= LinearK {
		return s
	}
	a := 1 / k
	if a > maxSteepness {
		a = maxSteepness
	}
	return math.Tanh(a*math.Pow(s, PartitionExp)) / math.Tanh(a)
}

func refEffInv(k, y float64) float64 {
	if y <= 0 {
		return 0
	}
	if y >= 1 {
		return 1
	}
	if k <= 0 {
		return 0
	}
	if k >= LinearK {
		return y
	}
	a := 1 / k
	if a > maxSteepness {
		a = maxSteepness
	}
	s := math.Pow(math.Atanh(y*math.Tanh(a))/a, 1/PartitionExp)
	if s > 1 {
		return 1
	}
	return s
}

type refDevice struct {
	Capacity float64

	residents []*refResident
	usedMem   float64
	want      []float64
	slow      float64

	lastOccupancy float64
	lastExecuted  float64
	totalExecuted float64
	ticks         int64
	occupancySum  float64
}

type refResident struct {
	SatK  float64
	MemMB float64

	pending float64
	granted float64

	executedLast  float64
	demandLast    float64
	grantedLast   float64
	usableLast    float64
	totalLaunched float64
}

func (d *refDevice) SetSlowdown(f float64) {
	if f <= 1 {
		f = 0
	}
	d.slow = f
}

func (r *refResident) SetGrant(tokens float64) {
	if tokens < 0 {
		tokens = 0
	}
	r.granted = tokens
}

func (r *refResident) CompletionFraction() float64 {
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

func (d *refDevice) ExecuteTick() {
	if cap(d.want) < len(d.residents) {
		d.want = make([]float64, len(d.residents))
	}
	want := d.want[:len(d.residents)]
	var totalOcc float64
	for i, r := range d.residents {
		r.demandLast = r.pending
		r.grantedLast = r.granted
		s := r.granted / d.Capacity
		usable := d.Capacity * refEff(r.SatK, s)
		if d.slow > 1 { // straggler: stretch execution, keep nominal capacity
			usable /= d.slow
		}
		w := r.pending
		if w > usable {
			w = usable
		}
		want[i] = w
		totalOcc += refEffInv(r.SatK, w/d.Capacity)
	}

	scale := 1.0
	if totalOcc > 1 {
		// Find the largest common scale λ with Σ occ(λ·want) ≤ 1.
		lo, hi := 0.0, 1.0
		for iter := 0; iter < 30; iter++ {
			mid := (lo + hi) / 2
			var occ float64
			for i, r := range d.residents {
				occ += refEffInv(r.SatK, mid*want[i]/d.Capacity)
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
		s := r.granted / d.Capacity
		r.usableLast = d.Capacity * refEff(r.SatK, s) * scale
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
		occTotal += refEffInv(r.SatK, x/d.Capacity)
	}
	d.lastExecuted = executedTotal
	d.totalExecuted += executedTotal
	d.lastOccupancy = occTotal
	d.occupancySum += occTotal
	d.ticks++
}

// satKPool covers every branch of the curve: the degenerate K <= 0, a
// steepness clamped at maxSteepness, catalog knees, the default K = 1
// and the linear sentinel and beyond.
func satKPool() []float64 {
	ks := []float64{0, math.Copysign(0, -1), -0.5, -1e-3, 1e-3, 0.02, 1, LinearK, 2 * LinearK, 1e6}
	for knee := 0.05; knee < 0.95; knee += 0.1 {
		ks = append(ks, KneeForEff(knee, 0.95))
	}
	return ks
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestCurveMatchesReference checks CurveOf+Eff/EffInv against the
// two-argument references over random and boundary (k, s).
func TestCurveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	ks := append(satKPool(), math.NaN(), math.Inf(1), math.Inf(-1))
	for range 2000 {
		ks = append(ks, math.Pow(10, -4+10*rng.Float64()))
	}
	xs := []float64{0, math.Copysign(0, -1), 1, -1, 2, 1e-300, 1 - 1e-16, math.NaN()}
	for _, k := range ks {
		c := CurveOf(k)
		for i := 0; i < len(xs)+50; i++ {
			x := -0.2 + 1.4*rng.Float64()
			if i < len(xs) {
				x = xs[i]
			}
			if got, want := Eff(c, x), refEff(k, x); !sameBits(got, want) {
				t.Fatalf("Eff(CurveOf(%v), %v) = %v, reference %v", k, x, got, want)
			}
			if got, want := EffInv(c, x), refEffInv(k, x); !sameBits(got, want) {
				t.Fatalf("EffInv(CurveOf(%v), %v) = %v, reference %v", k, x, got, want)
			}
		}
	}
}

// TestExecuteTickMatchesReference drives the device and the reference
// through thousands of random ticks: residents attach and detach, SatK
// changes mid-run, grants mostly repeat and sometimes change, pending
// demand sits above and below the usable rate, and the straggler factor
// and device capacity vary. After every tick every observable must agree
// bit for bit.
func TestExecuteTickMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	ks := satKPool()
	grantShares := []float64{-0.1, 0, 0.05, 0.2, 0.35, 0.5, 1, 1.3}
	var contended, uncontended int
	for trial := range 40 {
		d := NewDevice("g")
		if trial%4 == 3 {
			d.Capacity = 1000 + 9000*rng.Float64()
		}
		ref := &refDevice{Capacity: d.Capacity}
		var live []*Resident
		var refs []*refResident
		for tick := range 300 {
			if len(live) == 0 || len(live) < 8 && rng.IntN(15) == 0 {
				mem := float64(1 + rng.IntN(100))
				r, err := d.Attach("r", mem)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, r)
				refs = append(refs, &refResident{SatK: r.SatK, MemMB: mem})
				ref.residents = append(ref.residents, refs[len(refs)-1])
				ref.usedMem += mem
			}
			if len(live) > 1 && rng.IntN(20) == 0 {
				i := rng.IntN(len(live))
				d.Detach(live[i])
				ref.usedMem -= refs[i].MemMB
				live = slices.Delete(live, i, i+1)
				refs = slices.Delete(refs, i, i+1)
				ref.residents = slices.Delete(ref.residents, i, i+1)
			}
			if rng.IntN(40) == 0 {
				f := []float64{0, 1, 1.5, 3}[rng.IntN(4)]
				d.SetSlowdown(f)
				ref.SetSlowdown(f)
			}
			for i, r := range live {
				rr := refs[i]
				if rng.IntN(30) == 0 {
					r.SatK = ks[rng.IntN(len(ks))]
					rr.SatK = r.SatK
				}
				if rng.IntN(8) == 0 {
					g := grantShares[rng.IntN(len(grantShares))] * d.Capacity
					if rng.IntN(3) == 0 {
						g = 1.2 * d.Capacity * rng.Float64()
					}
					r.SetGrant(g)
					rr.SetGrant(g)
				}
				switch rng.IntN(10) {
				case 0, 1: // below what one tick can execute
					w := 0.2 * d.Capacity * rng.Float64()
					r.AddWork(w)
					rr.pending += w
				case 2: // far above it
					w := 10 * d.Capacity * rng.Float64()
					r.AddWork(w)
					rr.pending += w
				case 3:
					if rng.IntN(5) == 0 {
						r.ClearWork()
						rr.pending = 0
					}
				}
			}
			d.ExecuteTick()
			ref.ExecuteTick()
			compareTick(t, trial, tick, d, live, ref)
			if ref.lastOccupancy > 0.999 {
				contended++
			} else if ref.lastOccupancy > 0 {
				uncontended++
			}
		}
	}
	if contended < 500 || uncontended < 500 {
		t.Fatalf("only %d contended and %d uncontended ticks: the drive misses a path", contended, uncontended)
	}
}

func compareTick(t *testing.T, trial, tick int, d *Device, live []*Resident, ref *refDevice) {
	t.Helper()
	check := func(what string, got, want float64) {
		t.Helper()
		if !sameBits(got, want) {
			t.Fatalf("trial %d tick %d: %s = %v, reference %v", trial, tick, what, got, want)
		}
	}
	if !slices.Equal(d.Residents(), live) {
		t.Fatalf("trial %d tick %d: resident order diverged", trial, tick)
	}
	for i, r := range live {
		rr := ref.residents[i]
		check("Pending", r.Pending(), rr.pending)
		check("Grant", r.Grant(), rr.granted)
		check("ExecutedLast", r.ExecutedLast(), rr.executedLast)
		check("DemandLast", r.DemandLast(), rr.demandLast)
		check("GrantedLast", r.GrantedLast(), rr.grantedLast)
		check("usableLast", r.usableLast, rr.usableLast)
		check("CompletionFraction", r.CompletionFraction(), rr.CompletionFraction())
		check("TotalLaunched", r.TotalLaunched(), rr.totalLaunched)
	}
	check("LastOccupancy", d.LastOccupancy(), ref.lastOccupancy)
	check("LastExecuted", d.LastExecuted(), ref.lastExecuted)
	check("TotalExecuted", d.TotalExecuted(), ref.totalExecuted)
	check("occupancySum", d.occupancySum, ref.occupancySum)
	check("MemUsedMB", d.MemUsedMB(), ref.usedMem)
	if d.ticks != ref.ticks {
		t.Fatalf("trial %d tick %d: %d ticks, reference %d", trial, tick, d.ticks, ref.ticks)
	}
}

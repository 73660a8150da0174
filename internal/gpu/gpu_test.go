package gpu

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEffBoundary(t *testing.T) {
	if Eff(CurveOf(0.5), 0) != 0 {
		t.Fatal("eff(0) != 0")
	}
	if Eff(CurveOf(0.5), 1) != 1 {
		t.Fatal("eff(1) != 1")
	}
	if Eff(CurveOf(0.5), 2) != 1 {
		t.Fatal("eff clamps above 1")
	}
	if Eff(CurveOf(0), 0.3) != 1 {
		t.Fatal("K=0 means fully saturated")
	}
}

func TestEffMonotone(t *testing.T) {
	for _, k := range []float64{0.05, 0.15, 0.3, 1, LinearK} {
		prev := 0.0
		for s := 0.05; s <= 1.0; s += 0.05 {
			e := Eff(CurveOf(k), s)
			if e <= prev {
				t.Fatalf("k=%v: eff not increasing at s=%v", k, s)
			}
			prev = e
		}
	}
}

func TestEffSigmoidInteriorTEPeak(t *testing.T) {
	// Throughput efficacy eff(s)/s must peak strictly inside (0,1): this
	// is what puts the stars of Figure 4 at moderate SMRs instead of the
	// grid edge.
	k := KneeForEff(0.4, 0.95)
	bestS, bestTE := 0.0, 0.0
	for s := 0.05; s <= 1.0; s += 0.05 {
		te := Eff(CurveOf(k), s) / s
		if te > bestTE {
			bestTE, bestS = te, s
		}
	}
	if bestS <= 0.051 || bestS >= 0.95 {
		t.Fatalf("TE peak at s=%v, want interior", bestS)
	}
}

func TestEffLinearSentinel(t *testing.T) {
	for s := 0.1; s < 1.0; s += 0.2 {
		if got := Eff(CurveOf(LinearK), s); math.Abs(got-s) > 1e-12 {
			t.Fatalf("LinearK eff(%v) = %v, want linear", s, got)
		}
		if got := EffInv(CurveOf(LinearK), s); math.Abs(got-s) > 1e-12 {
			t.Fatalf("LinearK effinv(%v) = %v", s, got)
		}
	}
}

func TestEffInvRoundTrip(t *testing.T) {
	for _, k := range []float64{0.08, 0.2, 1, 10} {
		for s := 0.0; s <= 1.0; s += 0.1 {
			y := Eff(CurveOf(k), s)
			back := EffInv(CurveOf(k), y)
			if math.Abs(back-s) > 1e-6 && s < 1 {
				t.Fatalf("roundtrip k=%v s=%v -> %v", k, s, back)
			}
		}
	}
}

func TestKneeForEff(t *testing.T) {
	for _, knee := range []float64{0.15, 0.28, 0.5, 0.8} {
		k := KneeForEff(knee, 0.95)
		if got := Eff(CurveOf(k), knee); math.Abs(got-0.95) > 1e-6 {
			t.Fatalf("eff at knee %v = %v, want 0.95", knee, got)
		}
		// Below the knee the curve must be meaningfully sub-peak, i.e.
		// extra SMs up to the knee genuinely help.
		if got := Eff(CurveOf(k), knee/3); got > 0.75 {
			t.Fatalf("knee %v: eff(knee/3) = %v, too generous at low share", knee, got)
		}
	}
}

func TestKneeForEffDegenerate(t *testing.T) {
	if KneeForEff(0, 0.95) != 0 {
		t.Fatal("zero knee")
	}
	if KneeForEff(0.99, 0.95) != 1e6 {
		t.Fatal("knee beyond target should be ~linear")
	}
}

// Property: EffInv(c, Eff(c, s)) == s for s in (0,1).
func TestEffInverseProperty(t *testing.T) {
	f := func(ks, ss uint8) bool {
		// K below ~0.08 pushes tanh into float64 saturation where the
		// inverse is intentionally lossy near y→1; stay above it here.
		k := 0.08 + float64(ks)/64.0
		s := float64(ss%100) / 100.0
		y := Eff(CurveOf(k), s)
		return math.Abs(EffInv(CurveOf(k), y)-s) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceAttachMemory(t *testing.T) {
	d := NewDevice("g0")
	r1, err := d.Attach("a", 30*1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Attach("b", 20*1024); err == nil {
		t.Fatal("expected OOM")
	}
	d.Detach(r1)
	if _, err := d.Attach("b", 20*1024); err != nil {
		t.Fatalf("after detach: %v", err)
	}
	if d.MemUsedMB() != 20*1024 {
		t.Fatalf("mem used = %v", d.MemUsedMB())
	}
}

func TestDeviceDetachIdempotent(t *testing.T) {
	d := NewDevice("g0")
	r, _ := d.Attach("a", 100)
	d.Detach(r)
	d.Detach(r)
	if d.MemUsedMB() != 0 {
		t.Fatalf("double detach corrupted memory: %v", d.MemUsedMB())
	}
}

func TestSoloExecutionFullGrant(t *testing.T) {
	d := NewDevice("g0")
	r, _ := d.Attach("a", 100)
	r.SatK = 10 // nearly linear
	r.AddWork(3 * d.Capacity)
	r.SetGrant(d.Capacity)
	d.ExecuteTick()
	if math.Abs(r.ExecutedLast()-d.Capacity) > 1 {
		t.Fatalf("executed = %v, want ~capacity", r.ExecutedLast())
	}
	if math.Abs(d.LastOccupancy()-1.0) > 0.01 {
		t.Fatalf("occupancy = %v", d.LastOccupancy())
	}
	d.ExecuteTick()
	d.ExecuteTick()
	if r.Pending() > 1 {
		t.Fatalf("work should drain: pending=%v", r.Pending())
	}
}

func TestExecutionLimitedByGrant(t *testing.T) {
	d := NewDevice("g0")
	r, _ := d.Attach("a", 100)
	r.SatK = 1e6 // linear
	r.AddWork(d.Capacity)
	r.SetGrant(0.3 * d.Capacity)
	d.ExecuteTick()
	if math.Abs(r.ExecutedLast()-0.3*d.Capacity) > d.Capacity*0.01 {
		t.Fatalf("executed = %v, want ~30%% capacity", r.ExecutedLast())
	}
}

func TestSaturatedInstanceLeavesRoom(t *testing.T) {
	// A heavily saturated instance at full grant consumes little occupancy,
	// leaving SMs for a collocated one — the basis of profitable collocation.
	d := NewDevice("g0")
	a, _ := d.Attach("a", 100)
	a.SatK = KneeForEff(0.2, 0.95) // saturates at 20% SMs
	b, _ := d.Attach("b", 100)
	b.SatK = KneeForEff(0.2, 0.95)
	a.AddWork(10 * d.Capacity)
	b.AddWork(10 * d.Capacity)
	a.SetGrant(d.Capacity)
	b.SetGrant(d.Capacity)
	d.ExecuteTick()
	// Each achieves ~full rate; occupancy far below 2.0 yet both run.
	if a.ExecutedLast() < 0.95*d.Capacity || b.ExecutedLast() < 0.95*d.Capacity {
		t.Fatalf("executed a=%v b=%v", a.ExecutedLast(), b.ExecutedLast())
	}
}

func TestContentionScalesDown(t *testing.T) {
	// Two linear (unsaturated) instances each granted full capacity must
	// share: each gets ~half, and total occupancy caps at 1.
	d := NewDevice("g0")
	a, _ := d.Attach("a", 100)
	a.SatK = 1e6
	b, _ := d.Attach("b", 100)
	b.SatK = 1e6
	a.AddWork(10 * d.Capacity)
	b.AddWork(10 * d.Capacity)
	a.SetGrant(d.Capacity)
	b.SetGrant(d.Capacity)
	d.ExecuteTick()
	if math.Abs(a.ExecutedLast()-0.5*d.Capacity) > 0.02*d.Capacity {
		t.Fatalf("a executed %v, want ~half", a.ExecutedLast())
	}
	if d.LastOccupancy() > 1.001 {
		t.Fatalf("occupancy = %v > 1", d.LastOccupancy())
	}
}

func TestExecutionBoundedByPending(t *testing.T) {
	d := NewDevice("g0")
	r, _ := d.Attach("a", 100)
	r.SatK = 1e6
	r.AddWork(100)
	r.SetGrant(d.Capacity)
	d.ExecuteTick()
	if r.ExecutedLast() != 100 || r.Pending() != 0 {
		t.Fatalf("executed %v pending %v", r.ExecutedLast(), r.Pending())
	}
}

func TestTotalsAccumulate(t *testing.T) {
	d := NewDevice("g0")
	r, _ := d.Attach("a", 100)
	r.SatK = 1e6
	for i := 0; i < 5; i++ {
		r.AddWork(100)
		r.SetGrant(d.Capacity)
		d.ExecuteTick()
	}
	if r.TotalLaunched() != 500 {
		t.Fatalf("total launched = %v", r.TotalLaunched())
	}
	if d.TotalExecuted() != 500 {
		t.Fatalf("device total = %v", d.TotalExecuted())
	}
	if d.MeanOccupancy() <= 0 {
		t.Fatal("mean occupancy not tracked")
	}
}

// Property: SM occupancy never exceeds 1 for arbitrary grants, demands and
// saturations. (Executed block-units are model-normalized and MAY exceed
// Capacity when saturated residents collocate — that is the collocation
// win the paper exploits — so occupancy is the only physical invariant.)
func TestDeviceCapacityInvariant(t *testing.T) {
	f := func(cfg []struct {
		Work  uint16
		Grant uint16
		Knee  uint8
	}) bool {
		if len(cfg) == 0 || len(cfg) > 12 {
			return true
		}
		d := NewDevice("g")
		for i, c := range cfg {
			r, err := d.Attach(string(rune('a'+i)), 10)
			if err != nil {
				return true
			}
			knee := 0.05 + float64(c.Knee%90)/100.0
			r.SatK = KneeForEff(knee, 0.95)
			r.AddWork(float64(c.Work))
			r.SetGrant(float64(c.Grant))
		}
		d.ExecuteTick()
		return d.LastOccupancy() <= 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: work is conserved — executed never exceeds what was pending.
func TestWorkConservationProperty(t *testing.T) {
	f := func(work, grant uint16) bool {
		d := NewDevice("g")
		r, _ := d.Attach("a", 1)
		r.SatK = 0.5
		r.AddWork(float64(work))
		r.SetGrant(float64(grant))
		d.ExecuteTick()
		return math.Abs(r.ExecutedLast()+r.Pending()-float64(work)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

package workload

import (
	"math"
	"slices"
	"testing"

	"dilu/internal/sim"
)

func TestDiurnalShape(t *testing.T) {
	d := Diurnal{TroughRPS: 2, DayRPS: 40, PeakBoost: 0.5, Period: 240 * sim.Second}
	arr := Take(d, sim.NewRNG(11), 240*sim.Second)
	if !sortedTimes(arr) {
		t.Fatal("not sorted")
	}
	// Count arrivals in the trough ([0, 60s)) vs the plateau ([90s, 160s)).
	var trough, day float64
	for _, a := range arr {
		switch {
		case a < 60*sim.Second:
			trough++
		case a >= 90*sim.Second && a < 160*sim.Second:
			day++
		}
	}
	troughRate := trough / 60
	dayRate := day / 70
	if dayRate < 5*troughRate {
		t.Fatalf("day rate %.1f not well above trough rate %.1f", dayRate, troughRate)
	}
	if math.Abs(dayRate-40) > 10 {
		t.Fatalf("plateau rate %.1f, want ~40", dayRate)
	}
}

func TestDiurnalDefaultsAndZero(t *testing.T) {
	if got := Take(Diurnal{}, sim.NewRNG(1), sim.Minute); got != nil {
		t.Fatal("zero rates must generate nothing")
	}
	// Zero period/boost take defaults without panicking.
	arr := Take(Diurnal{TroughRPS: 1, DayRPS: 10}, sim.NewRNG(2), 300*sim.Second)
	if len(arr) == 0 {
		t.Fatal("no arrivals with defaults")
	}
}

func TestParetoMeanRateAndTail(t *testing.T) {
	p := Pareto{RPS: 20, Alpha: 1.5}
	arr := Take(p, sim.NewRNG(5), 600*sim.Second)
	if !sortedTimes(arr) {
		t.Fatal("not sorted")
	}
	// Heavy tails converge slowly; accept a loose band around the target.
	rate := meanRPS(arr, 600*sim.Second)
	if rate < 8 || rate > 40 {
		t.Fatalf("mean rate %.1f, want roughly 20", rate)
	}
	// Heavy-tailed gaps: the largest gap dwarfs the median gap by far
	// more than an exponential process would allow.
	var gaps []float64
	prev := sim.Time(0)
	for _, a := range arr {
		gaps = append(gaps, (a - prev).Seconds())
		prev = a
	}
	slices.Sort(gaps)
	median := gaps[len(gaps)/2]
	max := gaps[len(gaps)-1]
	if max < 50*median {
		t.Fatalf("max/median gap = %.1f, want heavy tail (>50)", max/median)
	}
}

func TestParetoClampsAlpha(t *testing.T) {
	if got := Take(Pareto{RPS: 0}, sim.NewRNG(1), sim.Minute); got != nil {
		t.Fatal("zero RPS must be empty")
	}
	// α ≤ 1 clamps instead of dividing by zero.
	arr := Take(Pareto{RPS: 10, Alpha: 0.5}, sim.NewRNG(3), sim.Minute)
	if !sortedTimes(arr) {
		t.Fatal("not sorted")
	}
}

func TestTenantMixWeights(t *testing.T) {
	m := TenantMix{Tenants: 4, TotalRPS: 40, Skew: 1}
	w := m.Weights()
	if len(w) != 4 {
		t.Fatalf("weights = %v", w)
	}
	var sum float64
	for i, v := range w {
		sum += v
		if i > 0 && v >= w[i-1] {
			t.Fatalf("weights not decreasing: %v", w)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %v", sum)
	}
	// Zipf s=1 over 4 tenants: head weight = 1/(1+1/2+1/3+1/4) = 0.48.
	if math.Abs(w[0]-0.48) > 0.001 {
		t.Fatalf("head weight %v, want 0.48", w[0])
	}
	// Skew 0 is uniform.
	u := TenantMix{Tenants: 4, TotalRPS: 40}.Weights()
	for _, v := range u {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("uniform weights = %v", u)
		}
	}
	if (TenantMix{}).Weights() != nil {
		t.Fatal("zero tenants must have no weights")
	}
}

func TestTenantMixSplitSkewed(t *testing.T) {
	m := TenantMix{Tenants: 6, TotalRPS: 60, Skew: 1.2}
	split := m.Split(sim.NewRNG(7), 300*sim.Second)
	if len(split) != 6 {
		t.Fatalf("split = %d tenants", len(split))
	}
	head := len(split[0].Times)
	tail := len(split[5].Times)
	if head <= 3*tail {
		t.Fatalf("no popularity skew: head %d vs tail %d", head, tail)
	}
	for i, ta := range split {
		if !sortedTimes(ta.Times) {
			t.Fatalf("tenant %d not sorted", i)
		}
		if ta.Tenant == "" || ta.Weight <= 0 {
			t.Fatalf("tenant %d metadata: %+v", i, ta)
		}
	}
	// Determinism: same seed, same split.
	again := m.Split(sim.NewRNG(7), 300*sim.Second)
	for i := range split {
		if !slices.Equal(split[i].Times, again[i].Times) {
			t.Fatalf("tenant %d split not deterministic", i)
		}
	}
}

func TestTenantMixCustomShape(t *testing.T) {
	m := TenantMix{
		Tenants: 3, TotalRPS: 30, Skew: 1,
		Shape: func(i int, rps float64) Arrivals {
			if i == 0 {
				return Bursty{BaseRPS: rps, Scale: 3}
			}
			return Poisson{RPS: rps}
		},
	}
	const dur = 120 * sim.Second
	split := m.Split(sim.NewRNG(9), dur)
	// Each tenant draws its shape at its share of the rate from its own
	// fork of the RNG, forked in tenant order.
	rng := sim.NewRNG(9)
	for i, ta := range split {
		want := Take(m.Shape(i, m.TotalRPS*ta.Weight), rng.Fork(int64(i+1)), dur)
		if len(want) == 0 || !slices.Equal(ta.Times, want) {
			t.Fatalf("tenant %d: %d arrivals, want the shape's %d", i, len(ta.Times), len(want))
		}
	}
}

// TestBurstyReplayIdentical is the regression test for the monotone rate
// cursor: replaying the same generator (same seed, same horizon) twice
// must produce identical output — the cursor must rewind, not resume
// past the last burst window of the previous run.
func TestBurstyReplayIdentical(t *testing.T) {
	b := Bursty{BaseRPS: 10, Scale: 5, BurstDur: 10 * sim.Second, Quiet: 30 * sim.Second}
	first := Take(b, sim.NewRNG(42), 200*sim.Second)
	second := Take(b, sim.NewRNG(42), 200*sim.Second)
	if !slices.Equal(first, second) {
		t.Fatalf("replay diverged: %d vs %d arrivals", len(first), len(second))
	}
}

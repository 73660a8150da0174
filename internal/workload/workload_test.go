package workload

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"dilu/internal/sim"
)

const testDur = 300 * sim.Second

func sortedTimes(ts []sim.Time) bool {
	return sort.SliceIsSorted(ts, func(i, j int) bool { return ts[i] < ts[j] })
}

// meanRPS is the average arrival rate over the horizon.
func meanRPS(arrivals []sim.Time, dur sim.Duration) float64 {
	return float64(len(arrivals)) / dur.Seconds()
}

// offeredRPS buckets arrivals into per-window request rates.
func offeredRPS(arrivals []sim.Time, window, dur sim.Duration) []float64 {
	out := make([]float64, dur/window)
	for _, t := range arrivals {
		out[t/window] += 1 / window.Seconds()
	}
	return out
}

func TestConstantRate(t *testing.T) {
	arr := Take(Constant{RPS: 10}, nil, 10*sim.Second)
	if len(arr) != 99 { // gaps of 100ms starting at 100ms, ending before 10s
		t.Fatalf("got %d arrivals, want 99", len(arr))
	}
	if !sortedTimes(arr) {
		t.Fatal("not sorted")
	}
}

func TestConstantZeroRPS(t *testing.T) {
	if got := Take(Constant{RPS: 0}, nil, testDur); got != nil {
		t.Fatal("zero RPS must be empty")
	}
}

func TestPoissonMeanRate(t *testing.T) {
	rng := sim.NewRNG(1)
	arr := Take(Poisson{RPS: 50}, rng, testDur)
	got := meanRPS(arr, testDur)
	if math.Abs(got-50)/50 > 0.05 {
		t.Fatalf("mean RPS = %v, want ~50", got)
	}
	if !sortedTimes(arr) {
		t.Fatal("not sorted")
	}
}

func TestGammaMeanRateAcrossCV(t *testing.T) {
	for _, cv := range []float64{0.001, 1, 3, 6} {
		rng := sim.NewRNG(2)
		arr := Take(Gamma{RPS: 40, CV: cv}, rng, testDur)
		got := meanRPS(arr, testDur)
		if math.Abs(got-40)/40 > 0.08 {
			t.Fatalf("cv=%v: mean RPS = %v, want ~40", cv, got)
		}
	}
}

func TestGammaCVControlsBurstiness(t *testing.T) {
	// Higher CV must produce more variable per-second counts.
	variance := func(cv float64) float64 {
		rng := sim.NewRNG(3)
		arr := Take(Gamma{RPS: 40, CV: cv}, rng, testDur)
		rates := offeredRPS(arr, sim.Second, testDur)
		var m, v float64
		for _, r := range rates {
			m += r
		}
		m /= float64(len(rates))
		for _, r := range rates {
			v += (r - m) * (r - m)
		}
		return v / float64(len(rates))
	}
	low, high := variance(0.5), variance(6)
	if high < 2*low {
		t.Fatalf("CV=6 variance (%v) should far exceed CV=0.5 (%v)", high, low)
	}
}

func TestBurstyHasBursts(t *testing.T) {
	rng := sim.NewRNG(4)
	tr := Bursty{BaseRPS: 10, Scale: 6, BurstDur: 20 * sim.Second, Quiet: 60 * sim.Second}
	arr := Take(tr, rng, testDur)
	rates := offeredRPS(arr, 5*sim.Second, testDur)
	var peak, trough float64 = 0, math.Inf(1)
	for _, r := range rates {
		if r > peak {
			peak = r
		}
		if r < trough {
			trough = r
		}
	}
	if peak < 35 {
		t.Fatalf("peak rate %v too low for scale-6 bursts on base 10", peak)
	}
	if trough > 25 {
		t.Fatalf("trough rate %v too high — no quiet periods", trough)
	}
}

func TestPeriodicOscillates(t *testing.T) {
	rng := sim.NewRNG(5)
	tr := Periodic{BaseRPS: 30, Amp: 0.8, Period: 60 * sim.Second}
	arr := Take(tr, rng, testDur)
	rates := offeredRPS(arr, 10*sim.Second, testDur)
	var peak, trough float64 = 0, math.Inf(1)
	for _, r := range rates {
		if r > peak {
			peak = r
		}
		if r < trough {
			trough = r
		}
	}
	if peak < 40 || trough > 20 {
		t.Fatalf("periodic should swing: peak=%v trough=%v", peak, trough)
	}
	got := meanRPS(arr, testDur)
	if math.Abs(got-30)/30 > 0.15 {
		t.Fatalf("mean = %v, want ~30", got)
	}
}

func TestSporadicMostlyIdle(t *testing.T) {
	rng := sim.NewRNG(6)
	tr := Sporadic{ClusterRPS: 5, ClusterDur: 10 * sim.Second, IdleMean: 90 * sim.Second}
	arr := Take(tr, rng, 600*sim.Second)
	rates := offeredRPS(arr, sim.Second, 600*sim.Second)
	idle := 0
	for _, r := range rates {
		if r == 0 {
			idle++
		}
	}
	if frac := float64(idle) / float64(len(rates)); frac < 0.5 {
		t.Fatalf("sporadic trace should be mostly idle, idle frac = %v", frac)
	}
	if len(arr) == 0 {
		t.Fatal("sporadic trace should still contain requests")
	}
}

func TestDeterminism(t *testing.T) {
	gens := []Arrivals{
		Poisson{RPS: 25},
		Gamma{RPS: 25, CV: 4},
		Bursty{BaseRPS: 10, Scale: 4},
		Periodic{BaseRPS: 20},
		Sporadic{ClusterRPS: 5},
	}
	for _, g := range gens {
		a := Take(g, sim.NewRNG(42), testDur)
		b := Take(g, sim.NewRNG(42), testDur)
		if len(a) != len(b) {
			t.Fatalf("%s: non-deterministic length", g.Name())
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: non-deterministic at %d", g.Name(), i)
			}
		}
	}
}

// Property: all generators, at any rate including zero, produce sorted
// arrivals within the horizon, and terminate.
func TestGeneratorsSortedBoundedProperty(t *testing.T) {
	// sortedBounded pulls the cursor itself, so a generator that runs
	// away fails at its first bad arrival, or at one arrival per
	// microsecond of horizon, instead of hanging.
	sortedBounded := func(g Arrivals, seed int64, dur sim.Duration) bool {
		next := g.Generate(sim.NewRNG(seed), dur)
		prev := sim.Time(0)
		for n := sim.Time(0); ; n++ {
			a, ok := next()
			if !ok {
				return true
			}
			if a < prev || a >= dur || n >= dur {
				return false
			}
			prev = a
		}
	}
	f := func(seed int64, which uint8, rps uint8) bool {
		r := float64(rps % 51) // 0 included: no generator may hang on it
		var g Arrivals
		switch which % 8 {
		case 0:
			g = Poisson{RPS: r}
		case 1:
			g = Gamma{RPS: r, CV: 3}
		case 2:
			g = Bursty{BaseRPS: r, Scale: 4}
		case 3:
			g = Periodic{BaseRPS: r}
		case 4:
			g = Sporadic{ClusterRPS: r}
		case 5:
			g = Constant{RPS: r}
		case 6:
			g = Diurnal{TroughRPS: r / 4, DayRPS: r}
		default:
			g = Pareto{RPS: r, Alpha: 1.5}
		}
		return sortedBounded(g, seed, 60*sim.Second)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
	for _, g := range []Arrivals{Poisson{}, Gamma{}, Bursty{}, Periodic{}, Sporadic{}, Constant{}, Diurnal{}, Pareto{}} {
		if at, ok := g.Generate(sim.NewRNG(1), 60*sim.Second)(); ok {
			t.Fatalf("%s at rate 0: arrival at %v, want none", g.Name(), at)
		}
	}
	// Above 1e6/s the gap clamps to the 1 µs clock resolution.
	fast := Constant{RPS: 5e6}
	if !sortedBounded(fast, 1, 10*sim.Millisecond) {
		t.Fatal("Constant{5e6} runs away")
	}
	if arr := Take(fast, nil, 10*sim.Millisecond); len(arr) != 9999 || arr[0] != sim.Microsecond {
		t.Fatalf("Constant{5e6}: %d arrivals, want 9999 one microsecond apart", len(arr))
	}
}

// TestCursorsOfOneValueAreIndependent pulls two cursors of one generator
// value alternately and requires each to yield what it yields when
// drawn alone. It fails if any cursor state lives on the value, where
// the two cursors would share it.
func TestCursorsOfOneValueAreIndependent(t *testing.T) {
	const dur = 120 * sim.Second
	gens := []Arrivals{
		Constant{RPS: 7},
		Poisson{RPS: 20},
		Gamma{RPS: 20, CV: 3},
		Bursty{BaseRPS: 5, Scale: 4, BurstDur: 10 * sim.Second, Quiet: 20 * sim.Second},
		Periodic{BaseRPS: 20, Period: 30 * sim.Second},
		Sporadic{ClusterRPS: 10, IdleMean: 20 * sim.Second},
		Diurnal{TroughRPS: 2, DayRPS: 20, Period: 60 * sim.Second},
		Pareto{RPS: 20, Alpha: 1.5},
		RateFunc{Label: "ramp", RPS: func(at sim.Time) float64 { return 20 * at.Seconds() / 120 }, Peak: 20},
		Times{Label: "times", T: Take(Poisson{RPS: 20}, sim.NewRNG(9), dur)},
	}
	for _, g := range gens {
		wantA := Take(g, sim.NewRNG(1), dur)
		wantB := Take(g, sim.NewRNG(2), dur)
		if len(wantA) == 0 || len(wantB) == 0 {
			t.Fatalf("%s: empty sequence", g.Name())
		}
		nextA, nextB := g.Generate(sim.NewRNG(1), dur), g.Generate(sim.NewRNG(2), dur)
		var gotA, gotB []sim.Time
		for liveA, liveB := true, true; liveA || liveB; {
			if liveA {
				var at sim.Time
				if at, liveA = nextA(); liveA {
					gotA = append(gotA, at)
				}
			}
			if liveB {
				var at sim.Time
				if at, liveB = nextB(); liveB {
					gotB = append(gotB, at)
				}
			}
		}
		if !slices.Equal(gotA, wantA) || !slices.Equal(gotB, wantB) {
			t.Fatalf("%s: interleaved cursors diverged from lone ones (%d/%d vs %d/%d arrivals)",
				g.Name(), len(gotA), len(gotB), len(wantA), len(wantB))
		}
	}
}

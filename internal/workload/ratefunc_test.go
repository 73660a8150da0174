package workload

import (
	"math"
	"testing"

	"dilu/internal/sim"
)

func TestRateFuncTracksRate(t *testing.T) {
	// Step function: 10 rps for 100s, then 50 rps for 100s.
	rf := RateFunc{
		Label: "step",
		RPS: func(at sim.Time) float64 {
			if at < 100*sim.Second {
				return 10
			}
			return 50
		},
		Peak: 50,
	}
	arr := Take(rf, sim.NewRNG(3), 200*sim.Second)
	var lo, hi int
	for _, a := range arr {
		if a < 100*sim.Second {
			lo++
		} else {
			hi++
		}
	}
	if math.Abs(float64(lo)-1000) > 150 {
		t.Fatalf("low phase arrivals = %d, want ~1000", lo)
	}
	if math.Abs(float64(hi)-5000) > 400 {
		t.Fatalf("high phase arrivals = %d, want ~5000", hi)
	}
}

func TestRateFuncZeroPeak(t *testing.T) {
	rf := RateFunc{Label: "z", RPS: func(sim.Time) float64 { return 10 }, Peak: 0}
	if got := Take(rf, sim.NewRNG(1), sim.Minute); got != nil {
		t.Fatal("zero peak should generate nothing")
	}
}

func TestRateFuncName(t *testing.T) {
	if (RateFunc{Label: "abc"}).Name() != "abc" {
		t.Fatal("label lost")
	}
}

func TestBurstyDefaultsApplied(t *testing.T) {
	// Zero BurstDur/Quiet take documented defaults without panicking.
	arr := Take(Bursty{BaseRPS: 5, Scale: 3}, sim.NewRNG(2), 120*sim.Second)
	if len(arr) == 0 {
		t.Fatal("no arrivals with defaults")
	}
}

func TestPeriodicNeverNegativeRate(t *testing.T) {
	// Amp > 1 would push the sinusoid negative; the generator clamps.
	p := Periodic{BaseRPS: 10, Amp: 2, Period: 20 * sim.Second}
	arr := Take(p, sim.NewRNG(4), 100*sim.Second)
	if len(arr) == 0 {
		t.Fatal("no arrivals")
	}
	for _, a := range arr {
		if a < 0 {
			t.Fatal("negative arrival time")
		}
	}
}

// Package workload generates the request arrival processes of the
// paper's evaluation: Poisson and Gamma(CV) inter-arrival processes
// (Figures 7, 8, 10), and Azure-Functions-like Bursty, Sporadic and
// Periodic traces (Table 3, Figures 12, 15) synthesized from the shape
// descriptions published with INFless and "Serverless in the Wild".
//
// Generators are cursors: Generate returns a sim.Cursor that draws each
// arrival from a seeded RNG when the engine pulls it, so a run holds one
// pending arrival per function, however long its horizon, and every
// experiment stays deterministic. Take drains a cursor into a slice for
// the callers that need the whole sequence.
package workload

import (
	"math"

	"dilu/internal/sim"
)

// Arrivals produces a deterministic arrival-time sequence over a horizon.
type Arrivals interface {
	Name() string
	// Generate returns a cursor over non-decreasing arrival times in
	// [0, dur). Each call returns a fresh cursor whose state is its own,
	// so cursors of one value may be live at once; a cursor draws from
	// rng only when pulled.
	Generate(rng *sim.RNG, dur sim.Duration) sim.Cursor
}

// Take drains a's cursor: every arrival in [0, dur), or nil if there is
// none.
func Take(a Arrivals, rng *sim.RNG, dur sim.Duration) []sim.Time {
	var out []sim.Time
	next := a.Generate(rng, dur)
	for t, ok := next(); ok; t, ok = next() {
		out = append(out, t)
	}
	return out
}

// none is the cursor of an empty arrival sequence.
func none() (sim.Time, bool) { return 0, false }

// renewal returns the cursor of a renewal process: each pull adds one
// gap drawn by gap, and the first arrival at or past dur ends it.
func renewal(dur sim.Duration, gap func() sim.Duration) sim.Cursor {
	t := sim.Time(0)
	return func() (sim.Time, bool) {
		t += gap()
		return t, t < dur
	}
}

// Constant emits requests at an exact fixed rate (deterministic gaps).
// The gap is clamped to the clock's 1 µs resolution, so a rate above
// 1e6/s emits one request per microsecond.
type Constant struct{ RPS float64 }

// Name implements Arrivals.
func (c Constant) Name() string { return "constant" }

// Generate implements Arrivals.
func (c Constant) Generate(_ *sim.RNG, dur sim.Duration) sim.Cursor {
	if c.RPS <= 0 {
		return none
	}
	gap := max(sim.FromSeconds(1/c.RPS), sim.Microsecond)
	return renewal(dur, func() sim.Duration { return gap })
}

// Poisson is a homogeneous Poisson arrival process.
type Poisson struct{ RPS float64 }

// Name implements Arrivals.
func (p Poisson) Name() string { return "poisson" }

// Generate implements Arrivals.
func (p Poisson) Generate(rng *sim.RNG, dur sim.Duration) sim.Cursor {
	if p.RPS <= 0 {
		return none
	}
	return renewal(dur, func() sim.Duration { return sim.FromSeconds(rng.Exp(p.RPS)) })
}

// Gamma is a renewal process with Gamma-distributed inter-arrival gaps
// parameterized by mean rate and coefficient of variation; CV=1 recovers
// Poisson and larger CVs produce the fluctuating workloads of Figure 10
// (FastServe-style).
type Gamma struct {
	RPS float64
	CV  float64
}

// Name implements Arrivals.
func (g Gamma) Name() string { return "gamma" }

// Generate implements Arrivals.
func (g Gamma) Generate(rng *sim.RNG, dur sim.Duration) sim.Cursor {
	if g.RPS <= 0 {
		return none
	}
	meanGap := 1 / g.RPS
	return renewal(dur, func() sim.Duration { return sim.FromSeconds(rng.GammaInterArrival(meanGap, g.CV)) })
}

// RateFunc is a non-homogeneous Poisson process whose instantaneous rate
// is given by RPS(t). It is the building block for the Azure-style traces.
//
// RPS must be a pure function of t: two cursors of one RateFunc value
// may be live at once, and each queries RPS at its own times.
type RateFunc struct {
	Label string
	RPS   func(t sim.Time) float64
	Peak  float64 // an upper bound of RPS over the horizon, for thinning
}

// Name implements Arrivals.
func (r RateFunc) Name() string { return r.Label }

// Generate implements Arrivals via Lewis-Shedler thinning.
func (r RateFunc) Generate(rng *sim.RNG, dur sim.Duration) sim.Cursor {
	if r.Peak <= 0 {
		return none
	}
	t := sim.Time(0)
	return func() (sim.Time, bool) {
		for {
			t += sim.FromSeconds(rng.Exp(r.Peak))
			if t >= dur {
				return t, false
			}
			if rng.Float64() < r.RPS(t)/r.Peak {
				return t, true
			}
		}
	}
}

// Bursty synthesizes the Azure "Bursty" trace class: a low base rate with
// sudden bursts of Scale× the base, each lasting BurstDur, spaced
// Quiet apart on average. The paper's Figure 8(a) uses initial burst
// scale factors of 4 and 6.
type Bursty struct {
	BaseRPS  float64
	Scale    float64
	BurstDur sim.Duration
	Quiet    sim.Duration
}

// Name implements Arrivals.
func (b Bursty) Name() string { return "bursty" }

// rateFunc precomputes the burst windows and returns the thinning
// process over them. The rate closure keeps a monotone index over the
// (ascending, disjoint) windows instead of scanning the whole list per
// candidate arrival, so unlike a public RateFunc its RPS is not pure:
// the value serves exactly one cursor, and Generate builds a fresh one
// for every call.
func (b Bursty) rateFunc(rng *sim.RNG, dur sim.Duration) RateFunc {
	burstDur := b.BurstDur
	if burstDur <= 0 {
		burstDur = 20 * sim.Second
	}
	quiet := b.Quiet
	if quiet <= 0 {
		quiet = 60 * sim.Second
	}
	// Precompute burst windows.
	type window struct{ start, end sim.Time }
	var bursts []window
	t := sim.Time(float64(quiet) * (0.5 + rng.Float64()))
	for t < dur {
		bursts = append(bursts, window{t, t + burstDur})
		t += burstDur + sim.Time(float64(quiet)*(0.5+rng.Float64()))
	}
	idx := 0
	return RateFunc{
		Label: "bursty",
		RPS: func(at sim.Time) float64 {
			for idx < len(bursts) && at >= bursts[idx].end {
				idx++
			}
			if idx < len(bursts) && at >= bursts[idx].start {
				return b.BaseRPS * b.Scale
			}
			return b.BaseRPS
		},
		Peak: b.BaseRPS * b.Scale,
	}
}

// Generate implements Arrivals.
func (b Bursty) Generate(rng *sim.RNG, dur sim.Duration) sim.Cursor {
	return b.rateFunc(rng, dur).Generate(rng, dur)
}

// Periodic synthesizes the Azure "Periodic" trace class: a smooth
// oscillation between trough and peak, modelling compressed diurnal load.
type Periodic struct {
	BaseRPS float64
	Amp     float64 // peak = Base·(1+Amp), trough = Base·(1−Amp)
	Period  sim.Duration
}

// Name implements Arrivals.
func (p Periodic) Name() string { return "periodic" }

// Generate implements Arrivals.
func (p Periodic) Generate(rng *sim.RNG, dur sim.Duration) sim.Cursor {
	period := p.Period
	if period <= 0 {
		period = 120 * sim.Second
	}
	amp := p.Amp
	if amp <= 0 {
		amp = 0.8
	}
	rate := func(at sim.Time) float64 {
		phase := 2 * math.Pi * float64(at) / float64(period)
		r := p.BaseRPS * (1 + amp*math.Sin(phase))
		if r < 0 {
			return 0
		}
		return r
	}
	return RateFunc{Label: "periodic", RPS: rate, Peak: p.BaseRPS * (1 + amp)}.Generate(rng, dur)
}

// Sporadic synthesizes the Azure "Sporadic" trace class: long idle
// stretches with occasional short clusters of requests — the keep-alive
// waste driver of Observation-3 (fewer than 85% of functions invoked per
// minute; a keep-alive instance may see 3-4 requests in ~50 s). A
// ClusterRPS of zero or less yields no arrivals.
type Sporadic struct {
	ClusterRPS float64      // rate inside a cluster
	ClusterDur sim.Duration // cluster length
	IdleMean   sim.Duration // mean idle gap between clusters
}

// Name implements Arrivals.
func (s Sporadic) Name() string { return "sporadic" }

// Generate implements Arrivals.
func (s Sporadic) Generate(rng *sim.RNG, dur sim.Duration) sim.Cursor {
	if s.ClusterRPS <= 0 {
		return none
	}
	clusterDur := s.ClusterDur
	if clusterDur <= 0 {
		clusterDur = 10 * sim.Second
	}
	idle := s.IdleMean
	if idle <= 0 {
		idle = 90 * sim.Second
	}
	t := sim.FromSeconds(rng.Exp(1 / idle.Seconds()))
	end := t + clusterDur
	return func() (sim.Time, bool) {
		for t < dur {
			for t < end && t < dur {
				t += sim.FromSeconds(rng.Exp(s.ClusterRPS))
				if t < end && t < dur {
					return t, true
				}
			}
			t = end + sim.FromSeconds(rng.Exp(1/idle.Seconds()))
			end = t + clusterDur
		}
		return t, false
	}
}

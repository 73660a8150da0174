package sim

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random stream used by workload generators and
// experiment drivers. It wraps math/rand with distribution helpers the
// paper's workloads need (Poisson and Gamma inter-arrival processes).
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a stream seeded deterministically.
func NewRNG(seed int64) *RNG { return &RNG{r: rand.New(rand.NewSource(seed))} }

// Fork derives an independent, deterministic sub-stream. Streams forked
// with distinct tags never correlate with the parent.
func (g *RNG) Fork(tag int64) *RNG {
	return NewRNG(g.r.Int63() ^ (tag * 0x5E3779B97F4A7C15))
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Exp returns an exponential sample with the given rate (mean 1/rate).
func (g *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return g.r.ExpFloat64() / rate
}

// Gamma samples a Gamma(shape, scale) variate using Marsaglia-Tsang for
// shape >= 1 and the boost transform for shape < 1. The Gamma arrival
// process parameterized by coefficient of variation (CV) drives Figure 10:
// shape = 1/CV², scale = mean·CV².
func (g *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		return 0
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := g.r.Float64()
		for u == 0 {
			u = g.r.Float64()
		}
		return g.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9.0*d)
	for {
		x := g.r.NormFloat64()
		v := 1.0 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.r.Float64()
		if u < 1.0-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1.0-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// GammaInterArrival samples an inter-arrival gap for a Gamma process with
// the given mean gap and coefficient of variation. CV→0 degenerates to a
// deterministic process; CV=1 is Poisson.
func (g *RNG) GammaInterArrival(meanGap, cv float64) float64 {
	if meanGap <= 0 {
		return 0
	}
	if cv <= 0.001 {
		return meanGap
	}
	shape := 1.0 / (cv * cv)
	scale := meanGap * cv * cv
	return g.Gamma(shape, scale)
}

// Pareto samples a Pareto(alpha, xm) variate by inverse transform:
// xm / U^(1/alpha). Heavy-tailed inter-arrival gaps with tail exponent
// alpha drive the bursty production workloads (most gaps tiny, rare gaps
// enormous).
func (g *RNG) Pareto(alpha, xm float64) float64 {
	if alpha <= 0 || xm <= 0 {
		return 0
	}
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Poisson samples a Poisson(lambda) count (Knuth for small lambda, normal
// approximation for large).
func (g *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		v := g.r.NormFloat64()*math.Sqrt(lambda) + lambda
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

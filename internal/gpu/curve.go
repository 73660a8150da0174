// Package gpu models a GPU device at the granularity Dilu's control loop
// observes and actuates: kernel-block execution per 5 ms token period,
// SM-saturation efficiency, memory capacity, and contention between
// collocated residents.
//
// The saturation curve eff_K(s) = tanh(a·s^β)/tanh(a), a = 1/K, β = 1.6,
// captures how well a workload converts an SM share s ∈ [0,1] into
// throughput. It is sigmoidal: tiny partitions pay disproportionate
// per-kernel overheads (slow start), the middle rises steeply while
// kernels still have blocks to spread over new SMs, and it flattens past
// a knee — the marginal effect Figure 4 of the paper is built on, and the
// reason throughput efficacy TE = eff(s)/s peaks at an interior SMR.
// Large K (≥ LinearK) degenerates to exactly linear scaling; small K
// saturates early. The inverse gives the SM occupancy actually consumed
// to sustain a given execution rate, which is what makes idle SMs of a
// saturated instance genuinely reusable by collocated instances.
package gpu

import "math"

// PartitionExp is the low-end penalty exponent β: throughput of a share s
// scales like s^β before the knee.
const PartitionExp = 1.6

// LinearK is the saturation constant at or above which the curve is
// treated as exactly linear (eff(s) = s).
const LinearK = 1e5

// maxSteepness bounds a = 1/K so tanh stays distinguishable from 1 in
// float64.
const maxSteepness = 40.0

// Curve is the saturation curve eff_K for one constant K, with the
// K-only factors of Eff and EffInv precomputed: the steepness a =
// min(1/K, maxSteepness) and tanh(a). A resident's K changes only when
// its batch size does, while Eff/EffInv run for it on every 5 ms tick,
// so caching the two saves a division and a tanh per call. The cached
// values are the ones Eff/EffInv computed inline before, so results are
// bit-identical. The zero Curve is the curve of K = 0.
type Curve struct {
	K     float64
	a, ta float64
}

// CurveOf returns the saturation curve with constant k.
func CurveOf(k float64) Curve {
	a := 1 / k
	if a > maxSteepness {
		a = maxSteepness
	}
	return Curve{K: k, a: a, ta: math.Tanh(a)}
}

// Eff returns the throughput fraction achieved with SM share s on curve
// c. s is clamped to [0,1].
func Eff(c Curve, s float64) float64 {
	if s <= 0 {
		return 0
	}
	if s >= 1 {
		return 1
	}
	if c.K <= 0 {
		return 1 // degenerate: fully saturated at any share
	}
	if c.K >= LinearK {
		return s
	}
	return math.Tanh(c.a*math.Pow(s, PartitionExp)) / c.ta
}

// EffInv returns the SM share required to achieve throughput fraction y
// on curve c; the inverse of Eff. y is clamped to [0,1].
func EffInv(c Curve, y float64) float64 {
	if y <= 0 {
		return 0
	}
	if y >= 1 {
		return 1
	}
	if c.K <= 0 {
		return 0
	}
	if c.K >= LinearK {
		return y
	}
	s := math.Pow(math.Atanh(y*c.ta)/c.a, 1/PartitionExp)
	if s > 1 {
		return 1
	}
	return s
}

// KneeForEff returns the saturation constant K such that
// Eff(CurveOf(K), sKnee) = effTarget. The model catalog expresses
// saturation as "share at which the workload reaches effTarget (e.g.
// 0.95) of its peak"; this solves tanh(a·s^β) = t·tanh(a) for a = 1/K
// by bisection (the left side grows from s^β to 1 as a increases, so
// the root is unique when s^β < t < 1).
func KneeForEff(sKnee, effTarget float64) float64 {
	if sKnee <= 0 {
		return 0
	}
	sb := math.Pow(sKnee, PartitionExp)
	if sb >= effTarget {
		// The knee cannot exceed the target efficiency point; treat as
		// nearly linear scaling.
		return LinearK * 10
	}
	lo, hi := 1e-4, maxSteepness
	for i := 0; i < 60; i++ {
		a := (lo + hi) / 2
		if math.Tanh(a*sb)/math.Tanh(a) < effTarget {
			lo = a
		} else {
			hi = a
		}
	}
	return 2 / (lo + hi)
}

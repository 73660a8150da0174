// Package profiler implements Dilu's multi-factor profiling (§3.2): the
// binary-search training profiler and the Hybrid Growth Search Strategy
// (HGSS) for inference <SMR, IBS> configurations, plus the baseline
// searchers compared in Table 2 (exhaustive Traversal, GPUlet's two-phase
// pre-running grid, and INFless' predictive decomposition).
//
// Each "trial" corresponds to one pre-running measurement (~30 s on the
// paper's testbed); searchers run trials against a solo instance on an
// idle GPU, which the simulator evaluates in closed form from the model
// catalog — exactly what a pre-run would converge to.
package profiler

import (
	"fmt"

	"dilu/internal/gpu"
	"dilu/internal/model"
	"dilu/internal/sim"
)

// Role distinguishes training and inference functions.
type Role int

// Function roles.
const (
	RoleInference Role = iota
	RoleTraining
)

func (r Role) String() string {
	if r == RoleTraining {
		return "training"
	}
	return "inference"
}

// SMRStep is the linear SMR growth unit of HGSS ("10 units" = 10% SM).
const SMRStep = 0.10

// TrainResult is the outcome of training profiling.
type TrainResult struct {
	Request float64 // SMR meeting 80% of exclusive throughput
	Limit   float64 // SMR meeting near-exclusive (98%) throughput
	Trials  int
}

// requestThroughputTarget and limitThroughputTarget are the p factors of
// the binary search: request ensures 80% exclusive throughput, limit the
// marginal-effect point (within 2% of exclusive).
const (
	requestThroughputTarget = 0.80
	limitThroughputTarget   = 0.98
)

// ProfileTraining runs the paper's binary search twice (request, limit).
// The exclusive-throughput measurement is shared between the searches.
func ProfileTraining(spec *model.Spec) TrainResult {
	trials := 1 // T1 at 100% SMR
	t1 := spec.TrainThroughput(1.0)
	search := func(p float64) float64 {
		lo, hi := 0.0, 1.0
		smr := 0.5
		for i := 0; i < 20; i++ {
			trials++
			ti := spec.TrainThroughput(smr)
			ratio := ti / t1
			if ratio >= p-0.02 && ratio <= p+0.02 {
				return smr
			}
			if ratio < p {
				lo = smr
			} else {
				hi = smr
			}
			smr = (lo + hi) / 2
		}
		return smr
	}
	req := search(requestThroughputTarget)
	lim := search(limitThroughputTarget)
	if lim < req {
		lim = req
	}
	return TrainResult{Request: req, Limit: lim, Trials: trials}
}

// InferResult is the outcome of an inference configuration search.
type InferResult struct {
	Request float64 // optimal SMR (the star of Figure 4)
	Limit   float64 // 2× request, capped at 1 (burst headroom)
	IBS     int
	TE      float64
	Trials  int
	Method  string
}

// execTime evaluates one pre-running trial: the batch execution time
// (TPOT for generative models) at the given configuration.
func execTime(spec *model.Spec, smr float64, ibs int) sim.Duration {
	if spec.Generative {
		return spec.TPOT(smr, ibs)
	}
	return spec.InferExecTime(smr, ibs)
}

// feasible applies the SLO rule t_exec ≤ SLO/2 (the INFless convention
// the paper adopts to cover batching wait, communication and
// preprocessing overheads).
func feasible(spec *model.Spec, smr float64, ibs int) bool {
	return execTime(spec, smr, ibs) <= spec.SLO/2
}

// te computes throughput efficacy for a configuration. For generative
// models throughput is tokens per second per SM unit.
func te(spec *model.Spec, smr float64, ibs int) float64 {
	if smr <= 0 {
		return 0
	}
	t := execTime(spec, smr, ibs).Seconds()
	if t <= 0 {
		return 0
	}
	return float64(ibs) / t / (smr * 100)
}

func finishInfer(spec *model.Spec, smr float64, ibs, trials int, method string) InferResult {
	lim := 2 * smr
	if lim > 1 {
		lim = 1
	}
	return InferResult{
		Request: smr, Limit: lim, IBS: ibs,
		TE: te(spec, smr, ibs), Trials: trials, Method: method,
	}
}

// HGSS is Dilu's Hybrid Growth Search Strategy: IBS doubles while SMR
// grows linearly by SMRStep; infeasible larger batches are pruned by a
// single full-SMR bound probe, exploiting the convex TE surface.
func HGSS(spec *model.Spec) InferResult {
	trials := 0
	smr := SMRStep
	// Climb SMR until the batch-1 configuration meets the SLO.
	for smr <= 1.0 {
		trials++
		if feasible(spec, smr, 1) {
			break
		}
		smr += SMRStep
	}
	if smr > 1.0 {
		// SLO unattainable even exclusively; fall back to full GPU.
		return finishInfer(spec, 1.0, 1, trials, "Dilu")
	}
	bestSMR, bestIBS := smr, 1
	bestTE := te(spec, smr, 1)
	for ibs := 2; ibs <= model.MaxIBS; ibs *= 2 {
		// Pruning probe: if even the whole GPU cannot make this batch
		// feasible, no larger batch can be either (work is monotone).
		trials++
		if !feasible(spec, 1.0, ibs) {
			break
		}
		s := bestSMR
		for s <= 1.0 {
			trials++
			if feasible(spec, s, ibs) {
				break
			}
			s += SMRStep
		}
		if s > 1.0 {
			break
		}
		if t := te(spec, s, ibs); t > bestTE {
			bestTE, bestSMR, bestIBS = t, s, ibs
		} else {
			// Convex surface: once TE declines, the forward path is done.
			break
		}
	}
	return finishInfer(spec, bestSMR, bestIBS, trials, "Dilu")
}

// Traversal exhaustively pre-runs the full 6×10 <IBS, SMR> grid (60
// trials) and picks the feasible configuration with the best TE.
func Traversal(spec *model.Spec) InferResult {
	trials := 0
	bestTE := -1.0
	bestSMR, bestIBS := 1.0, 1
	for ibs := 1; ibs <= model.MaxIBS; ibs *= 2 {
		for smr := SMRStep; smr <= 1.0+1e-9; smr += SMRStep {
			trials++
			if !feasible(spec, smr, ibs) {
				continue
			}
			if t := te(spec, smr, ibs); t > bestTE {
				bestTE, bestSMR, bestIBS = t, smr, ibs
			}
		}
	}
	return finishInfer(spec, bestSMR, bestIBS, trials, "Traversal")
}

// GPUlet pre-runs a coarse two-phase 4×4 grid (16 trials, matching the
// constant trial count Table 2 reports) and refines to the best feasible
// cell.
func GPUlet(spec *model.Spec) InferResult {
	trials := 0
	bestTE := -1.0
	bestSMR, bestIBS := 1.0, 1
	for _, ibs := range []int{1, 2, 4, 8} {
		for _, smr := range []float64{0.25, 0.5, 0.75, 1.0} {
			trials++
			if !feasible(spec, smr, ibs) {
				continue
			}
			if t := te(spec, smr, ibs); t > bestTE {
				bestTE, bestSMR, bestIBS = t, smr, ibs
			}
		}
	}
	return finishInfer(spec, bestSMR, bestIBS, trials, "GPUlet")
}

// INFless models the predictive searcher: the model is decomposed into
// operator groups whose execution times are predicted from calibration
// runs — 8 trials per candidate batch level up to the first level that is
// infeasible even at full SMR. Prediction error (the paper notes lower
// accuracy from operator-time prediction) is modeled as one SMR step of
// overshoot on the chosen request quota.
func INFless(spec *model.Spec) InferResult {
	trials := 0
	levels := 0
	for ibs := 1; ibs <= model.MaxIBS; ibs *= 2 {
		levels++
		if !feasible(spec, 1.0, ibs) {
			break
		}
	}
	trials = 8 * levels
	// Predicted optimum: like traversal but on predicted times, with the
	// final SMR rounded up one step (conservative prediction margin).
	ref := Traversal(spec)
	smr := ref.Request + SMRStep
	if smr > 1 {
		smr = 1
	}
	res := finishInfer(spec, smr, ref.IBS, trials, "INFless")
	return res
}

// SearchByName dispatches a Table 2 searcher by its label.
func SearchByName(name string, spec *model.Spec) (InferResult, error) {
	switch name {
	case "Dilu":
		return HGSS(spec), nil
	case "Traversal":
		return Traversal(spec), nil
	case "GPUlet":
		return GPUlet(spec), nil
	case "INFless":
		return INFless(spec), nil
	}
	return InferResult{}, fmt.Errorf("profiler: unknown searcher %q", name)
}

// ---------------------------------------------------------------------------
// Figure 4 surface.

// SurfacePoint is one cell of the ⟨IBS, SMR, TE⟩ surface of Figure 4.
type SurfacePoint struct {
	IBS      int
	SMR      float64
	TE       float64
	Feasible bool
	Star     bool
}

// TESurface evaluates the full surface and marks the HGSS optimum.
func TESurface(spec *model.Spec) []SurfacePoint {
	star := HGSS(spec)
	var out []SurfacePoint
	for ibs := 1; ibs <= model.MaxIBS; ibs *= 2 {
		for smr := SMRStep; smr <= 1.0+1e-9; smr += SMRStep {
			p := SurfacePoint{
				IBS: ibs, SMR: smr,
				TE:       te(spec, smr, ibs),
				Feasible: feasible(spec, smr, ibs),
			}
			if ibs == star.IBS && abs(smr-star.Request) < SMRStep/2 {
				p.Star = true
			}
			out = append(out, p)
		}
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ---------------------------------------------------------------------------
// Function profiles.

// Profile is the resourcing metadata the scheduler and scalers consume.
type Profile struct {
	Spec  *model.Spec
	Role  Role
	SMReq float64
	SMLim float64
	IBS   int // inference batch size (1 for training)
	MemMB float64
	// ServingRPS is one instance's sustainable request rate at its
	// request quota — the per-instance capacity the global scaler uses.
	ServingRPS float64
	// SeedKLC is the duration in seconds of an uncontended batch-1
	// iteration (decode step for generative models; compute phase for
	// training) at the limit quota, and SeedWork its block work. They
	// prime RCKM clients' T_min; the serving plane divides both by the
	// pipeline stage count.
	SeedKLC  float64
	SeedWork float64
	Trials   int
}

// For profiles a function with Dilu's searchers and derives the serving
// metadata.
func For(spec *model.Spec, role Role) Profile {
	if role == RoleTraining {
		r := ProfileTraining(spec)
		// Compute-only iteration time at the limit quota (sync excluded:
		// the KLC covers kernel launches, not communication idle).
		seed := spec.TrainWork / (model.BlocksPerSecond * gpu.Eff(gpu.CurveOf(spec.TrainSatK()), r.Limit))
		return Profile{
			Spec: spec, Role: role,
			SMReq: r.Request, SMLim: r.Limit, IBS: 1,
			MemMB: spec.TrainMemMB, SeedKLC: seed, SeedWork: spec.TrainWork,
			Trials: r.Trials,
		}
	}
	r := HGSS(spec)
	seed := execTime(spec, r.Limit, 1).Seconds()
	seedWork := spec.InferWork(1)
	if spec.Generative {
		seedWork = spec.DecodeStepWork(1)
	}
	return Profile{
		Spec: spec, Role: role,
		SMReq: r.Request, SMLim: r.Limit, IBS: r.IBS,
		MemMB:      spec.InferMemMB,
		ServingRPS: spec.InferThroughput(r.Request, r.IBS),
		SeedKLC:    seed, SeedWork: seedWork, Trials: r.Trials,
	}
}

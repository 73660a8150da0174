// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5). Each driver builds the scenario from the
// public building blocks (core.System, workload generators, profiler,
// scheduler), runs it on virtual time, and emits a report.Report whose
// rows mirror what the paper plots. EXPERIMENTS.md is the claims
// ledger: each row names a driver, a claim about it, and the test that
// asserts the claim on several seeds.
package experiments

import (
	"fmt"

	"dilu/internal/core"
	"dilu/internal/rckm"
	"dilu/internal/scaler"
	"dilu/internal/sim"
)

// Options scale experiments between quick (benchmark) and full runs.
type Options struct {
	// Scale multiplies run durations; 1.0 is the full experiment. Values
	// below 0.1 are clamped.
	Scale float64
	// Seed drives all randomness; 0 means 1.
	Seed int64
	// Meter, when non-nil, observes every engine the driver spins up
	// (virtual time advanced, engine count). The harness attaches one
	// meter per run for throughput accounting; it never affects results.
	Meter *sim.Meter
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Scale < 0.1 {
		o.Scale = 0.1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Normalized returns the options every driver actually runs with —
// seed and scale clamped to their valid ranges. The harness keys
// manifest records by normalized values so the record never misstates
// the parameters of the run.
func (o Options) Normalized() Options { return o.withDefaults() }

func (o Options) dur(base sim.Duration) sim.Duration {
	d := sim.Duration(float64(base) * o.Scale)
	if d < 10*sim.Second {
		d = 10 * sim.Second
	}
	return d
}

// gpuBaselines are the GPU-level comparison systems of §5.2.
var gpuBaselines = []string{"Exclusive", "Dilu", "MPS-l", "MPS-r", "TGS", "FaST-GS"}

// systemFor builds a system variant for GPU-level collocation
// experiments (placements are pinned, so only the token policy differs).
// Seed and meter come from the run options.
func systemFor(policy string, nodes, gpusPerNode int, o Options) *core.System {
	cfg := core.Config{Nodes: nodes, GPUsPerNode: gpusPerNode, Seed: o.Seed, Meter: o.Meter}
	switch policy {
	case "Exclusive":
		cfg.Policy = "Exclusive"
		cfg.Scheduler = "Exclusive"
	default:
		cfg.Policy = policy
		cfg.Scheduler = "Dilu"
	}
	return core.MustSystem(cfg)
}

// clusterSystem builds a cluster-level system by evaluation label.
func clusterSystem(label string, nodes, gpusPerNode int, o Options, maxTokens float64) (*core.System, error) {
	cfg := core.Config{Nodes: nodes, GPUsPerNode: gpusPerNode, Seed: o.Seed, Meter: o.Meter}
	cfg.RCKM = rckm.Config{MaxTokens: maxTokens}
	switch label {
	case "Dilu":
		cfg.Policy, cfg.Scheduler = "Dilu", "Dilu"
		cfg.NewScaler = func() scaler.Policy { return scaler.NewDilu(scaler.DiluConfig{}) }
	case "Dilu-RC":
		cfg.Policy, cfg.Scheduler = "Dilu", "Dilu"
		cfg.SchedOpts.DisableComplementary = true
		cfg.NewScaler = func() scaler.Policy { return scaler.NewDilu(scaler.DiluConfig{}) }
	case "Dilu-WA":
		cfg.Policy, cfg.Scheduler = "Dilu", "Dilu"
		cfg.SchedOpts.DisableAffinity = true
		cfg.NewScaler = func() scaler.Policy { return scaler.NewDilu(scaler.DiluConfig{}) }
	case "Dilu-VS":
		cfg.Policy, cfg.Scheduler = "Uncontrolled", "Dilu"
		cfg.NewScaler = func() scaler.Policy { return scaler.NewDilu(scaler.DiluConfig{}) }
	case "Exclusive":
		cfg.Policy, cfg.Scheduler = "Exclusive", "Exclusive"
		cfg.NewScaler = func() scaler.Policy { return scaler.NewDilu(scaler.DiluConfig{}) }
	case "INFless+", "INFless+-l":
		cfg.Policy, cfg.Scheduler = "MPS-l", "INFless+-l"
		cfg.NewScaler = func() scaler.Policy { return scaler.NewPredictive() }
	case "INFless+-r":
		cfg.Policy, cfg.Scheduler = "MPS-r", "INFless+-r"
		cfg.NewScaler = func() scaler.Policy { return scaler.NewPredictive() }
	case "FaST-GS+":
		cfg.Policy, cfg.Scheduler = "FaST-GS", "FaST-GS+"
		cfg.NewScaler = func() scaler.Policy { return scaler.NewEager() }
	default:
		return nil, fmt.Errorf("experiments: unknown system %q", label)
	}
	return core.NewSystem(cfg)
}

func mustClusterSystem(label string, nodes, gpusPerNode int, o Options) *core.System {
	sys, err := clusterSystem(label, nodes, gpusPerNode, o, 0)
	if err != nil {
		panic(err)
	}
	return sys
}

// runSampled runs sys for dur as consecutive Runs of step, calling
// sample after each with the time it ended at. A step on the tick
// lattice ends on a tick, so every sample sees the state after that
// time's tick; a remainder shorter than step runs unsampled. Running in
// segments changes no result (TestRunSegmentsMatchSingleRun), and lets
// an idle system fast-forward between samples.
func runSampled(sys *core.System, dur, step sim.Duration, sample func(now sim.Time)) {
	end := sys.Eng.Now() + dur
	for sys.Eng.Now()+step <= end {
		sys.Run(step)
		sample(sys.Eng.Now())
	}
	if rest := end - sys.Eng.Now(); rest > 0 {
		sys.Run(rest)
	}
}

package core

import (
	"encoding/json"
	"slices"
	"testing"

	"dilu/internal/metrics"
	"dilu/internal/scaler"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// segmentsOutcome is everything TestRunSegmentsMatchSingleRun compares
// between a run in one piece and the same run in segments.
type segmentsOutcome struct {
	slo        string
	gpus       []metrics.Point
	served     int64
	throughput float64
	now        sim.Time
	ticks      int64
}

// runSegmentsScenario runs one seeded scenario as consecutive Runs of
// the given lengths. A training job starts at startAt and
// stops after 40 iterations; a bursty inference function under the Dilu
// scaler is deployed at deployAt. The stretches with no work, before
// each of the two, let the engine fast-forward.
func runSegmentsScenario(t *testing.T, segments []sim.Duration, startAt, deployAt sim.Time) segmentsOutcome {
	t.Helper()
	var meter sim.Meter
	sys := MustSystem(Config{
		Nodes: 1, GPUsPerNode: 2, Seed: 11, Meter: &meter,
		NewScaler: func() scaler.Policy { return scaler.NewDilu(scaler.DiluConfig{Window: 5, PhiOut: 2, PhiIn: 3}) },
	})
	tj, err := sys.DeployTraining("t", "BERT-base", TrainOpts{Workers: 1, StartAt: startAt, TargetIters: 40})
	if err != nil {
		t.Fatal(err)
	}
	var f *Function
	sys.Eng.Schedule(deployAt, func(sim.Time) {
		f, err = sys.DeployInference("f", "RoBERTa-large", InferOpts{
			Arrivals: workload.Bursty{BaseRPS: 30, Scale: 6, BurstDur: 3 * sim.Second, Quiet: 4 * sim.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	for _, s := range segments {
		sys.Run(s)
	}
	slo, err := json.Marshal(sys.SLOSummary())
	if err != nil {
		t.Fatal(err)
	}
	out := segmentsOutcome{
		slo:        string(slo),
		gpus:       sys.GPUSeries.Points,
		served:     f.Served(),
		throughput: tj.Throughput(sys.Eng.Now()),
		now:        sys.Eng.Now(),
		ticks:      meter.Ticks(),
	}
	return out
}

// TestRunSegmentsMatchSingleRun pins the property sampled experiment
// drivers rely on: running a system as consecutive Runs — on the tick
// lattice (5 ms, 1 s) or off it (7.3 ms, 12.5 ms) — gives exactly the
// results of one Run over the same span, idle fast-forward included.
func TestRunSegmentsMatchSingleRun(t *testing.T) {
	const d = 30 * sim.Second
	cycle := []sim.Duration{5 * sim.Millisecond, sim.Second, 7300 * sim.Microsecond, 12500 * sim.Microsecond}
	var segments []sim.Duration
	var ends []sim.Time
	for sum := sim.Duration(0); sum < d; {
		s := min(cycle[len(segments)%len(cycle)], d-sum)
		segments = append(segments, s)
		sum += s
		ends = append(ends, sum)
	}
	// Both idle stretches end 2.5 ms after an off-lattice segment end
	// (1.0123 s and 9.2107 s). An engine that let that segment end, not
	// the 5 ms lattice, set the tick phase would tick at a different time
	// in segments than in one Run.
	startAt := ends[2] + 2500*sim.Microsecond
	deployAt := ends[34] + 2500*sim.Microsecond
	single := runSegmentsScenario(t, []sim.Duration{d}, startAt, deployAt)
	seg := runSegmentsScenario(t, segments, startAt, deployAt)

	if single.served == 0 || single.throughput == 0 {
		t.Fatalf("vacuous scenario: served %d, training throughput %v", single.served, single.throughput)
	}
	if lattice := int64(d / sim.TickPeriod); single.ticks >= lattice {
		t.Fatalf("no idle fast-forward: %d ticks of %d lattice points", single.ticks, lattice)
	}
	if seg.now != single.now || seg.now != d {
		t.Fatalf("Now: segments %v, single %v, want %v", seg.now, single.now, d)
	}
	if seg.served != single.served {
		t.Fatalf("served: segments %d, single %d", seg.served, single.served)
	}
	if seg.throughput != single.throughput {
		t.Fatalf("training throughput: segments %v, single %v", seg.throughput, single.throughput)
	}
	if !slices.Equal(seg.gpus, single.gpus) {
		t.Fatalf("GPUSeries differ:\nsegments %v\nsingle   %v", seg.gpus, single.gpus)
	}
	if seg.slo != single.slo {
		t.Fatalf("SLOSummary differs:\nsegments %s\nsingle   %s", seg.slo, single.slo)
	}
}

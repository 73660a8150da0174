package experiments

import "testing"

// Claim tests: each asserts one row of the EXPERIMENTS.md claims ledger
// at test scale on several seeds. A seed on which a claim fails is a
// finding to record in the ledger, never a seed to drop.

var claimSeeds = []int64{1, 2, 3}

// TestClaimColdStartStages: kernel-cache hits cut the mean effective
// cold start below the no-cache arm's, and in each arm the per-stage
// violation counts sum to the cold-start violation count (every
// cold-start violation is attributed to exactly one launch stage).
func TestClaimColdStartStages(t *testing.T) {
	for _, seed := range claimSeeds {
		rep := ColdStartStages(Options{Scale: 0.1, Seed: seed})
		timing := rep.Table("Cold-start timing by arm")
		attr := rep.Table("Violation attribution by arm")
		if timing == nil || attr == nil {
			t.Fatalf("seed %d: missing timing or attribution table", seed)
		}
		meanCold := map[string]float64{}
		for _, row := range timing.Rows {
			meanCold[row[0]] = gwCell(t, row, 5)
		}
		if !(meanCold["cache"] < meanCold["no-cache"]) {
			t.Errorf("seed %d: cache arm mean cold start %.0f ms not below no-cache %.0f ms",
				seed, meanCold["cache"], meanCold["no-cache"])
		}
		if len(attr.Rows) != 2 {
			t.Fatalf("seed %d: %d attribution rows, want 2", seed, len(attr.Rows))
		}
		for _, row := range attr.Rows {
			cold := gwCell(t, row, 2)
			stages := gwCell(t, row, 3) + gwCell(t, row, 4) + gwCell(t, row, 5)
			if stages != cold {
				t.Errorf("seed %d: arm %s stage violations sum to %v, cold_start_violations %v",
					seed, row[0], stages, cold)
			}
		}
		sum := rep.SLO
		if sum == nil || sum.ColdStart == nil {
			t.Fatalf("seed %d: cache arm SLO summary lacks a cold_start block", seed)
		}
		cs := sum.ColdStart
		if got := cs.ImageInitViolations + cs.ModelLoadViolations + cs.KernelJITViolations; got != sum.ColdStartViolations {
			t.Errorf("seed %d: cold_start block stages sum to %d, cold_start_violations %d",
				seed, got, sum.ColdStartViolations)
		}
	}
}

// TestClaimGrayFailureAttribution: in the mitigated gray-failure arm,
// the violations attributed to a launch stage and to warm queueing
// never exceed the violations there are.
func TestClaimGrayFailureAttribution(t *testing.T) {
	for _, seed := range claimSeeds {
		sum := GrayFailure(Options{Scale: 0.1, Seed: seed}).SLO
		if sum == nil {
			t.Fatalf("seed %d: gray_failure attached no SLO summary", seed)
		}
		var warm int64
		if sum.ColdStart != nil {
			warm = sum.ColdStart.WarmQueueViolations
		}
		if sum.ColdStartViolations+warm > sum.Violations {
			t.Errorf("seed %d: cold_start_violations %d + warm_queue_violations %d > violations %d",
				seed, sum.ColdStartViolations, warm, sum.Violations)
		}
		for _, fs := range sum.Funcs {
			if fs.ColdStartViolations+fs.WarmQueueViolations > fs.Violations {
				t.Errorf("seed %d: %s attributes %d cold + %d warm-queue of %d violations",
					seed, fs.Func, fs.ColdStartViolations, fs.WarmQueueViolations, fs.Violations)
			}
		}
	}
}

package experiments

import (
	"fmt"
	"testing"
)

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

// TestClaimFigure7Collocation: collocating training with inference,
// Dilu serves every pair on fewer GPUs than Exclusive — exactly half in
// the single-GPU pairs — and keeps more training throughput than TGS,
// whose low-priority training all but stops. (The 4-fragment LLaMA2
// pair is 4 GPUs against Exclusive's 5, not half: its Exclusive arm
// serves the model unsharded on one GPU. See the ledger's findings.)
func TestClaimFigure7Collocation(t *testing.T) {
	for _, seed := range claimSeeds {
		rep := Figure7(Options{Scale: 0.1, Seed: seed})
		for _, c := range figure7Cases {
			lat := rep.Table(fmt.Sprintf("Figure 7(a). %s —", c.label))
			thr := rep.Table(fmt.Sprintf("Figure 7(b). %s —", c.label))
			if lat == nil || thr == nil {
				t.Fatalf("seed %d: %s: missing latency or throughput table", seed, c.label)
			}
			gpus, norm := map[string]float64{}, map[string]float64{}
			for _, row := range lat.Rows {
				gpus[row[0]] = gwCell(t, row, 4)
			}
			for _, row := range thr.Rows {
				norm[row[0]] = gwCell(t, row, 2)
			}
			if !(gpus["Dilu"] < gpus["Exclusive"]) {
				t.Errorf("seed %d: %s: Dilu uses %v GPUs, Exclusive %v", seed, c.label, gpus["Dilu"], gpus["Exclusive"])
			}
			if c.gpus == 1 && 2*gpus["Dilu"] != gpus["Exclusive"] {
				t.Errorf("seed %d: %s: Dilu uses %v GPUs, not half of Exclusive's %v", seed, c.label, gpus["Dilu"], gpus["Exclusive"])
			}
			if !(norm["Dilu"] > norm["TGS"]) {
				t.Errorf("seed %d: %s: Dilu normalized training throughput %v not above TGS's %v",
					seed, c.label, norm["Dilu"], norm["TGS"])
			}
		}
	}
}

// TestClaimFigure13KernelIssuing: at low inference load Dilu keeps the
// mean inference kernel ratio below static MPS-r's, leaving SMs to the
// collocated training job (13(a)); under CV-5 fluctuating load Dilu's
// peak ratio is above MPS-r's, issuing more tokens in bursts (13(b)).
func TestClaimFigure13KernelIssuing(t *testing.T) {
	for _, seed := range claimSeeds {
		rep := Figure13(Options{Scale: 0.1, Seed: seed})
		low := rep.Table("Figure 13(a).")
		fluct := rep.Table("Figure 13(b).")
		if low == nil || fluct == nil {
			t.Fatalf("seed %d: missing Figure 13(a) or 13(b) table", seed)
		}
		mean, peak := map[string]float64{}, map[string]float64{}
		for _, row := range low.Rows {
			mean[row[0]] = gwCell(t, row, 1)
		}
		for _, row := range fluct.Rows {
			peak[row[0]] = gwCell(t, row, 2)
		}
		if !(mean["Dilu"] < mean["MPS-r"]) {
			t.Errorf("seed %d: low load: Dilu mean inference kernel ratio %v not below MPS-r's %v",
				seed, mean["Dilu"], mean["MPS-r"])
		}
		if !(peak["Dilu"] > peak["MPS-r"]) {
			t.Errorf("seed %d: CV-5 load: Dilu peak inference kernel ratio %v not above MPS-r's %v",
				seed, peak["Dilu"], peak["MPS-r"])
		}
	}
}

// TestClaimFigure14KernelCounts: Dilu's collocated trace ends with the
// most cumulative kernel blocks of the four (Dilu and MPS-r collocated,
// Exclusive training-only and inference-only), the paper's "highest GPU
// utilization".
func TestClaimFigure14KernelCounts(t *testing.T) {
	for _, seed := range claimSeeds {
		tab := Figure14(Options{Scale: 0.1, Seed: seed}).Table("Figure 14.")
		if tab == nil || len(tab.Rows) != 4 {
			t.Fatalf("seed %d: missing Figure 14 table or not 4 traces", seed)
		}
		if tab.Rows[0][0] != "Dilu (collocated)" {
			t.Fatalf("seed %d: first trace is %q, want Dilu (collocated)", seed, tab.Rows[0][0])
		}
		dilu := gwCell(t, tab.Rows[0], 1)
		for _, row := range tab.Rows[1:] {
			if other := gwCell(t, row, 1); !(dilu > other) {
				t.Errorf("seed %d: Dilu's %v final kernel blocks not above %s's %v", seed, dilu, row[0], other)
			}
		}
	}
}

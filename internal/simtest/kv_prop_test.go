package simtest

import (
	"math/rand"
	"testing"

	"dilu/internal/cluster"
	"dilu/internal/core"
	"dilu/internal/sim"
)

// TestKVConservationUnderChurn is the property test behind the KV
// ledger: under random interleavings of submits (explicit token
// lengths), abrupt node failures mid-decode, and rejoins, the KV-cache
// charge/release bookkeeping must conserve against a from-scratch
// recount — at placement granularity (Σ p.KVMB == g.KVUsedMB), at GPU
// granularity (KVUsedMB within MemUsedMB), and at device granularity
// (live LLM sequences recounted per device). The KVConservation checker
// armed via Config.Invariants runs the full audit every 5ms tick, so a
// single leaked or double-released megabyte anywhere in the
// admit/grow/preempt/complete/abort/evict lifecycle panics the run.
//
// KV-tight cards (1 GB of cache headroom over the 16 GB of weights)
// make the schedule adversarial: sequences are preempted mid-decode by
// cache exhaustion, evicted by node failures, refused at admission, and
// redispatched onto rejoined nodes — every unwind path runs many times.
func TestKVConservationUnderChurn(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5, 8} {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			runKVChurn(t, seed)
		})
	}
}

func runKVChurn(t *testing.T, seed int64) {
	sys := core.MustSystem(core.Config{
		Nodes: 2, GPUsPerNode: 2, Seed: seed,
		Classes:    []cluster.GPUClass{{Name: "kv-tight", Capacity: 1, MemCapMB: 17 * 1024, Weight: 1}},
		Invariants: Checkers(),
	})
	if _, err := sys.DeployInference("llm", "LLaMA2-7B", core.InferOpts{
		Instances: 2, Stages: 1, NoScaler: true,
		LLM: &core.LLMOpts{
			MaxBatch: 16,
			TTFT:     300 * sim.Millisecond,
			TPOT:     80 * sim.Millisecond,
		},
	}); err != nil {
		t.Fatal(err)
	}

	// The schedule's randomness is its own (deterministic per seed) and
	// independent of the system RNG — the property must hold for any
	// interleaving, not just the ones the workload generators produce.
	rng := rand.New(rand.NewSource(seed))
	failed := [2]bool{}
	// The schedule acts after each 5 ms segment, on the state that
	// segment's tick left.
	for sys.Eng.Now() < 30*sim.Second {
		sys.Run(sim.TickPeriod)
		now := sys.Eng.Now()
		// Bursty submits: enough concurrent long decodes to exhaust the
		// 1 GB KV headroom and force preemptions and refusals.
		for i := rng.Intn(3); i > 0; i-- {
			sys.Submit(now, core.Request{
				Func:         "llm",
				PromptTokens: 64 + rng.Intn(449),
				DecodeTokens: 32 + rng.Intn(225),
			})
		}
		// Rare abrupt failures mid-decode and later rejoins: the
		// FailNode path evicts placements with live KV (cluster-side
		// reconcile) before the serving plane aborts the sequences
		// (resident-side release) — the ordering the ledger must absorb.
		if rng.Intn(200) == 0 {
			n := rng.Intn(2)
			if failed[n] {
				sys.JoinNode(n)
			} else if !failed[1-n] { // keep one node alive for redispatch
				sys.FailNode(n)
			}
			failed[n] = !failed[n]
		}
	}

	// The invariant ran every tick; one last explicit audit at the end
	// state, then assert the schedule was adversarial enough to mean
	// anything: tokens flowed and at least one pressure unwind ran.
	if err := KVConservation().Check(sys, sys.Eng.Now()); err != nil {
		t.Fatalf("seed %d: final KV audit: %v", seed, err)
	}
	rec := sys.Functions()[0].TokenStats()
	if rec == nil || rec.TokensOut() == 0 {
		t.Fatalf("seed %d: no tokens decoded — vacuous run", seed)
	}
	if rec.Preemptions() == 0 && rec.Refusals() == 0 {
		t.Fatalf("seed %d: no KV pressure events — schedule not adversarial", seed)
	}
}

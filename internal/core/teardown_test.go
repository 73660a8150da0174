package core

import (
	"testing"

	"dilu/internal/sim"
)

// holdPolicy never scales on its own; it only sets the keep-alive TTL
// that scaleIn applies.
type holdPolicy struct{ ttl sim.Duration }

func (holdPolicy) Name() string                               { return "hold" }
func (holdPolicy) Decide(sim.Time, float64, int, float64) int { return 0 }
func (p holdPolicy) KeepAliveTTL() sim.Duration               { return p.ttl }

// TestTeardownRequeuesUnfinishedWork drives scaleIn against an LLM
// instance with resident sequences, with and without keep-alive. An
// inactive LLM instance starts no step, so a keep-alive entry freezes
// its sequences until expiry. Either way the teardown must abort the
// sequences back through the gateway and unwind their KV charge: the
// ledger balances, the victim's GPU holds no KV, and every admitted
// request is eventually served.
func TestTeardownRequeuesUnfinishedWork(t *testing.T) {
	for _, tc := range []struct {
		name string
		ttl  sim.Duration
	}{
		{"no keep-alive", 0},
		{"keep-alive expiry", 5 * sim.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 2})
			f, err := sys.DeployInference("llm", "LLaMA2-7B", InferOpts{
				Instances: 2, Stages: 1, NoScaler: true, LLM: &LLMOpts{MaxBatch: 8},
			})
			if err != nil {
				t.Fatal(err)
			}
			f.policy = holdPolicy{ttl: tc.ttl}
			const n = 8
			for i := 0; i < n; i++ {
				sys.Submit(0, Request{Func: "llm", PromptTokens: 64, DecodeTokens: 200})
			}
			sys.Run(sim.Second)
			// scaleIn's choice: the first least-loaded serving instance.
			victim := f.active[0]
			for _, si := range f.active[1:] {
				if si.inst.Load() < victim.inst.Load() {
					victim = si
				}
			}
			if victim.inst.InFlight() == 0 {
				t.Fatal("victim has no resident sequence — teardown not exercised with live work")
			}
			g := victim.dec.GPUs[0]
			f.scaleIn(sys.Eng.Now())
			if tc.ttl > 0 {
				sys.Run(sim.Second)
				if victim.inst.InFlight() == 0 {
					t.Fatal("keep-alive entry did not hold its sequences")
				}
				sys.Run(tc.ttl)
			}
			if victim.inst.Load() != 0 {
				t.Fatalf("torn-down instance still holds %d requests", victim.inst.Load())
			}
			if got, want := f.RecountInFlight(), f.InFlightCount(); got != want {
				t.Fatalf("in-flight recount %d ≠ ledger %d — a torn-down request vanished", got, want)
			}
			if g.KVUsedMB != 0 {
				t.Fatalf("victim GPU still charges %.1f MB of KV", g.KVUsedMB)
			}
			sys.Run(60 * sim.Second)
			if _, adm, _ := f.GatewayCounts(); f.Served() != adm || adm != n {
				t.Fatalf("served %d of %d admitted (%d submitted)", f.Served(), adm, n)
			}
		})
	}
}

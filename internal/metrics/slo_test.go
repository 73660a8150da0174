package metrics

import (
	"math"
	"strings"
	"testing"

	"dilu/internal/sim"
)

// TestObserveWaitAttribution: ObserveWait carries no launch stage, so
// a gateway wait never counts as a cold-start violation — a violating
// sample that waited lands in the warm-queue bucket instead.
func TestObserveWaitAttribution(t *testing.T) {
	cases := []struct {
		name             string
		latency, wait    sim.Duration
		viol, warm, cold int
		goodput          int
	}{
		{"within SLO", 50 * sim.Millisecond, 0, 0, 0, 0, 1},
		{"violation on the hot path", 150 * sim.Millisecond, 0, 1, 0, 0, 0},
		{"violation after a gateway wait", 200 * sim.Millisecond, 80 * sim.Millisecond, 1, 1, 0, 0},
		{"waited but met SLO", 90 * sim.Millisecond, 60 * sim.Millisecond, 0, 0, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewLatencyRecorder("f", 100*sim.Millisecond)
			r.ObserveWait(tc.latency, tc.wait)
			if r.Violations() != tc.viol || r.WarmQueueViolations() != tc.warm ||
				r.ColdStartViolations() != tc.cold || r.Goodput() != tc.goodput {
				t.Fatalf("violations %d warm %d cold %d goodput %d, want %d/%d/%d/%d",
					r.Violations(), r.WarmQueueViolations(), r.ColdStartViolations(), r.Goodput(),
					tc.viol, tc.warm, tc.cold, tc.goodput)
			}
			r.Reset()
			if r.Violations() != 0 || r.WarmQueueViolations() != 0 || r.Count() != 0 {
				t.Fatal("reset incomplete")
			}
		})
	}
}

func TestObserveDelegatesToObserveWait(t *testing.T) {
	r := NewLatencyRecorder("f", 100*sim.Millisecond)
	r.Observe(150 * sim.Millisecond)
	if r.Violations() != 1 || r.ColdStartViolations() != 0 {
		t.Fatalf("observe: v=%d cold=%d", r.Violations(), r.ColdStartViolations())
	}
}

func TestNoSLOMeansNoViolations(t *testing.T) {
	r := NewLatencyRecorder("f", 0)
	r.ObserveWait(10*sim.Second, 5*sim.Second)
	if r.Violations() != 0 || r.Goodput() != 1 {
		t.Fatal("zero SLO must disable violation accounting")
	}
}

func TestSummarizeSLO(t *testing.T) {
	a := NewLatencyRecorder("a", 100*sim.Millisecond)
	for i := 0; i < 98; i++ {
		a.ObserveWait(50*sim.Millisecond, 0)
	}
	a.ObserveWaitStage(150*sim.Millisecond, 10*sim.Millisecond, ColdModelLoad)
	a.ObserveWait(120*sim.Millisecond, 0)

	b := NewLatencyRecorder("b", 50*sim.Millisecond)
	for i := 0; i < 10; i++ {
		stage := ColdKernelJIT
		if i%2 == 1 {
			stage = ColdNone // warm queue
		}
		b.ObserveWaitStage(200*sim.Millisecond, 20*sim.Millisecond, stage)
	}

	sum := SummarizeSLO(100*sim.Second, a, b, nil)
	if len(sum.Funcs) != 2 {
		t.Fatalf("funcs = %d", len(sum.Funcs))
	}
	if sum.Requests != 110 || sum.Violations != 12 || sum.ColdStartViolations != 6 {
		t.Fatalf("totals: %+v", sum)
	}
	// Per-function attribution rows, table-checked against the recorders.
	for _, tc := range []struct {
		fn                    string
		viol, cold, load, jit int64
		warm                  int64
	}{
		{"a", 2, 1, 1, 0, 0},
		{"b", 10, 5, 0, 5, 5},
	} {
		var fs SLOFuncStats
		for _, f := range sum.Funcs {
			if f.Func == tc.fn {
				fs = f
			}
		}
		if fs.Violations != tc.viol || fs.ColdStartViolations != tc.cold ||
			fs.ImageInitViolations != 0 || fs.ModelLoadViolations != tc.load ||
			fs.KernelJITViolations != tc.jit || fs.WarmQueueViolations != tc.warm {
			t.Fatalf("func %s attribution: %+v", tc.fn, fs)
		}
	}
	// Goodput: (100-2)/100 + 0/100 = 0.98 rps.
	if math.Abs(sum.GoodputRPS-0.98) > 1e-9 {
		t.Fatalf("goodput = %v", sum.GoodputRPS)
	}
	// a attains p95 (98% of samples at 50 ms), b attains nothing.
	if sum.P95Attainment != 0.5 {
		t.Fatalf("p95 attainment = %v", sum.P95Attainment)
	}
	fa := sum.Funcs[0]
	if fa.Func != "a" || !fa.AttainedP95 || fa.AttainedP99 {
		t.Fatalf("func a stats: %+v", fa)
	}
	if got := fa.ViolationRate(); math.Abs(got-0.02) > 1e-9 {
		t.Fatalf("func a SVR = %v", got)
	}
	if got := sum.ColdStartShare(); math.Abs(got-6.0/12) > 1e-9 {
		t.Fatalf("cold share = %v", got)
	}
	if s := sum.String(); !strings.Contains(s, "110 reqs") {
		t.Fatalf("summary string: %s", s)
	}
}

func TestSummarizeSLOEmpty(t *testing.T) {
	sum := SummarizeSLO(10 * sim.Second)
	if sum.Requests != 0 || sum.ViolationRate() != 0 || sum.ColdStartShare() != 0 {
		t.Fatalf("empty summary: %+v", sum)
	}
	// A recorder with no samples never counts as attaining.
	empty := NewLatencyRecorder("e", sim.Second)
	sum = SummarizeSLO(10*sim.Second, empty)
	if sum.P95Attainment != 0 {
		t.Fatalf("empty recorder attained: %+v", sum)
	}
}

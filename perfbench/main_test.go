package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"

	"dilu/internal/harness"
)

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricsMatchBenchmarkJSON pins the names and units the benchmark
// prints to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %v, code has %q", i, names, w.name)
		}
	}
	compare := func(kind string, json []spec, code []metricSpec) {
		if len(json) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(json), len(code))
		}
		for i := 0; i < len(json) && i < len(code); i++ {
			if json[i].Name != code[i].name || json[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, json[i].Name, json[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	compare("end_to_end", bench.EndToEnd, endToEnd)
	compare("per_layer", bench.PerLayer, perLayer())

	seen := map[string]bool{}
	for _, m := range append(slices.Clone(endToEnd), perLayer()...) {
		if !nameRe.MatchString(m.name) || !unitRe.MatchString(m.unit) || seen[m.name] {
			t.Errorf("bad or repeated metric %q [%s]", m.name, m.unit)
		}
		seen[m.name] = true
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"math.tanh", "dilu/internal/gpu.Eff", "dilu/internal/gpu.(*Device).ExecuteTick",
			"dilu/internal/core.(*System).tick", "dilu/internal/sim.(*Engine).Run", "dilu/internal/core.(*System).Run"}, "gpu.eff_s"},
		{[]string{"dilu/internal/gpu.(*Device).ExecuteTick", "dilu/internal/core.(*System).Run"}, "gpu.execute_s"},
		{[]string{"runtime.growslice", "dilu/internal/sim.(*RNG).Exp", "dilu/internal/workload.Poisson.Generate",
			"dilu/internal/core.(*System).DeployInference"}, "workload.generate_s"},
		{[]string{"dilu/internal/workload.Bursty.Generate.func1", "dilu/internal/core.(*System).DeployInference"}, "workload.generate_s"},
		{[]string{"runtime.mapaccess1", "dilu/internal/core.(*Function).launch", "dilu/internal/core.(*System).DeployInference"}, "core.deploy_s"},
		{[]string{"dilu/internal/cluster.(*Cluster).compactBucket", "dilu/internal/sched.(*Dilu).Schedule"}, "cluster.index_s"},
		{[]string{"dilu/internal/sched.(*Dilu).scanShardOpt", "dilu/internal/sched.(*Dilu).Schedule"}, "sched.schedule_s"},
		{[]string{"dilu/internal/sim.(*Engine).Schedule", "dilu/internal/core.(*System).submit"}, "sim.engine_s"},
		{[]string{"dilu/internal/core.(*Function).inject", "dilu/internal/core.(*System).submit",
			"dilu/internal/sim.(*Engine).Run", "dilu/internal/core.(*System).Run"}, "core.submit_s"},
		{[]string{"dilu/internal/metrics.(*LatencyRecorder).Record", "dilu/internal/instance.(*Inference).PostTick"}, "metrics.record_s"},
		{[]string{"dilu/internal/simtest.QuotaConservation.func1", "main.(*checkTimer).check",
			"dilu/internal/core.(*System).Run"}, "simtest"},
		{[]string{"time.Now", "main.(*checkTimer).check", "dilu/internal/core.(*System).Run"}, "simtest"},
		{[]string{"dilu/internal/core.(*System).Eng", "main.(*observer).harvest"}, "bench"},
		{[]string{"dilu/internal/experiments.Figure2", "main.runTraced.func1"}, ""},
		{[]string{"runtime.gcBgMarkWorker"}, ""},
		{[]string{"dilu/internal/experiments.Figure2"}, ""},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

var short = workload{name: "short", drivers: byID("figure13", "figure9"), scale: 0.1, checkers: true}

// TestTracedPassIsFaithful checks on a short job list that the traced
// pass reproduces the timed pass's manifest and that the layers, which
// are disjoint, never claim more CPU than the profile holds.
func TestTracedPassIsFaithful(t *testing.T) {
	jobs := harness.Jobs(short.drivers(), []int64{1}, short.scale)
	short.arm()
	timed := runPass(short, jobs, nil)
	tr := runTraced(short, jobs)
	if timed.failed > 0 || tr.failed > 0 || tr.digest != timed.digest {
		t.Fatalf("traced digest %s (failed %d) vs timed %s (failed %d)", tr.digest, tr.failed, timed.digest, timed.failed)
	}
	sum := 0.0
	for _, s := range tr.prof.layers {
		sum += s
	}
	if tr.prof.total <= 0 || sum > tr.prof.total*(1+1e-9) {
		t.Errorf("layers sum to %.3fs, profile total %.3fs", sum, tr.prof.total)
	}
	if tr.obs.checks == 0 || tr.obs.fired == 0 {
		t.Errorf("observer saw %d checks over %d check points", tr.obs.checks, tr.obs.fired)
	}
}

func TestSeedChangesDigest(t *testing.T) {
	short.arm()
	d := func(seed int64) string {
		p := runPass(short, harness.Jobs(short.drivers(), []int64{seed}, short.scale), nil)
		if p.failed > 0 {
			t.Fatalf("seed %d: %d jobs failed", seed, p.failed)
		}
		return p.digest
	}
	a, b, c := d(1), d(2), d(1)
	if a != c {
		t.Errorf("seed 1 gave digests %s and %s", a, c)
	}
	if a == b {
		t.Errorf("seeds 1 and 2 gave the same digest %s", a)
	}
}

const (
	suite     = "suite-ci"
	serving   = "serving-s1"
	placement = "placement-hyperscale"
)

// predictions records, per layer, the workloads that exercise it
// (non-zero) and those that leave it idle (a time under 1% of the
// profile, a count of zero). perfbench/README.md carries the same table.
var predictions = []struct {
	metric   string
	on, idle []string
}{
	{"workload.generate_s", []string{suite, serving}, []string{placement}},
	{"workload.arrivals_unused", []string{suite, serving}, []string{placement}},
	{"workload.arrivals_used_ratio", []string{suite, serving}, []string{placement}},
	// Deploy's own work, generation and scheduling aside, is a few
	// milliseconds: below the profile's resolution on every workload.
	{"core.deploy_s", nil, []string{placement}},
	{"core.run_s", []string{serving}, []string{placement}},
	{"core.submit_s", []string{serving}, []string{placement}},
	{"core.requests_submitted", []string{suite, serving}, []string{placement}},
	{"core.requests_refused", []string{suite, serving}, []string{placement}},
	{"core.cold_starts", []string{suite, serving}, []string{placement}},
	{"sched.schedule_s", []string{placement}, nil},
	{"cluster.index_s", []string{placement}, nil},
	{"gpu.execute_s", []string{serving}, []string{placement}},
	{"gpu.eff_s", []string{suite, serving}, []string{placement}},
	{"rckm.issue_s", []string{serving}, []string{placement}},
	{"instance.step_s", []string{suite, serving}, []string{placement}},
	{"instance.busy_per_tick", []string{suite, serving}, []string{placement}},
	{"sim.engine_s", []string{suite, serving}, nil},
	{"sim.ticks", []string{suite, serving}, []string{placement}},
	{"sim.virtual_s", []string{suite, serving, placement}, nil},
	{"sim.host_us_per_tick", []string{suite, serving}, []string{placement}},
	{"metrics.record_s", []string{serving}, nil},
	{"simtest.check_s", []string{suite}, []string{serving, placement}},
	{"simtest.checks", []string{suite}, []string{serving, placement}},
	{"report.encode_s", []string{suite, serving, placement}, nil},
	{"runtime.gc_s", []string{suite}, nil},
	{"trace.profile_cpu_s", []string{suite, serving, placement}, nil},
}

// TestLayerPredictions runs one traced pass of every workload and checks
// the table above, plus a wall time for every driver of the workload.
func TestLayerPredictions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	for _, w := range workloads {
		jobs := harness.Jobs(w.drivers(), []int64{1}, w.scale)
		tr := runTraced(w, jobs)
		if tr.failed > 0 {
			t.Fatalf("%s: %d jobs failed", w.name, tr.failed)
		}
		res := result{Metrics: map[string]metricValue{}}
		tr.layerTable(&res, []pass{tr.pass})
		total := res.Metrics["trace.profile_cpu_s"].Value
		for _, p := range predictions {
			m := res.Metrics[p.metric]
			if slices.Contains(p.on, w.name) && m.Value <= 0 {
				t.Errorf("%s: %s = %g, predicted non-zero", w.name, p.metric, m.Value)
			}
			if slices.Contains(p.idle, w.name) && (m.Unit == "s" && m.Value >= 0.01*total || m.Unit != "s" && m.Value != 0) {
				t.Errorf("%s: %s = %g %s, predicted idle", w.name, p.metric, m.Value, m.Unit)
			}
		}
		for _, j := range jobs {
			if name := "experiments." + j.Driver + ".wall_s"; res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s missing", w.name, name)
			}
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "suite-ci", "--trace", "2"},
		{"--workload", "suite-ci", "--seconds", "0"},
	} {
		if code := run(args, os.Stdout, os.Stderr); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
	}
}

// Command perfbench is the repository's benchmark. It runs a fixed list
// of registry drivers (a workload) through the experiment harness,
// serially in one process, for a given number of seconds, and prints
// host-cost metrics as one JSON line. Every pass's manifest digest must
// match the others for the same seed, or the run is marked incorrect.
//
//	bash perfbench/run.sh --workload suite-ci --seed 1 --seconds 30 --trace 0
//
// With --trace 1 it adds one profiled pass and prints the per-layer
// table instead. See perfbench/README.md for the workloads, the metrics
// and what each layer is expected to move.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"dilu/internal/core"
	"dilu/internal/experiments"
	"dilu/internal/harness"
	"dilu/internal/report"
	"dilu/internal/sim"
	"dilu/internal/simtest"
)

// workload is one job list. Jobs always run with Parallel 1 so that
// wall_s measures the simulator, not the worker count.
type workload struct {
	name     string
	drivers  func() []experiments.Driver
	scale    float64
	checkers bool // arm the simtest invariant checkers, as tier-1 does
}

var workloads = []workload{
	{"suite-ci", func() []experiments.Driver {
		return experiments.ByTier(experiments.TierQuick, experiments.TierStandard)
	}, 0.1, true},
	{"serving-s1", byID("coldstart_stages", "overload_shed", "gray_failure", "figure13",
		"tenant_fairness", "llm_continuous_batch", "llm_kvcache_pressure", "figure14"), 1.0, false},
	{"placement-hyperscale", byID("figure17", "hetero_mix", "hyperscale", "hyperscale_max"), 0.1, false},
}

func byID(ids ...string) func() []experiments.Driver {
	return func() []experiments.Driver {
		out := make([]experiments.Driver, len(ids))
		for i, id := range ids {
			d, err := experiments.ByID(id)
			if err != nil {
				panic(err) // the lists above name registry drivers
			}
			out[i] = d
		}
		return out
	}
}

// arm installs the invariant factory the workload's timed passes run
// with: the simtest checkers, or none.
func (w workload) arm() {
	if w.checkers {
		core.SetDefaultInvariantFactory(simtest.Checkers)
	} else {
		core.SetDefaultInvariantFactory(nil)
	}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metricSpec is one reported metric; BENCHMARK.json lists the same
// names and units (the package test checks).
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"allocs_k", "k"},
}

var layerMetrics = []metricSpec{
	{"workload.generate_s", "s"},
	{"workload.arrivals_unused", "count"},
	{"workload.arrivals_used_ratio", "ratio"},
	{"core.deploy_s", "s"},
	{"core.run_s", "s"},
	{"core.submit_s", "s"},
	{"core.requests_submitted", "count"},
	{"core.requests_refused", "count"},
	{"core.cold_starts", "count"},
	{"sched.schedule_s", "s"},
	{"cluster.index_s", "s"},
	{"gpu.execute_s", "s"},
	{"gpu.eff_s", "s"},
	{"rckm.issue_s", "s"},
	{"instance.step_s", "s"},
	{"instance.busy_per_tick", "count"},
	{"sim.engine_s", "s"},
	{"sim.ticks", "count"},
	{"sim.virtual_s", "s"},
	{"sim.host_us_per_tick", "us"},
	{"metrics.record_s", "s"},
	{"simtest.check_s", "s"},
	{"simtest.checks", "count"},
	{"report.encode_s", "s"},
	{"runtime.gc_s", "s"},
	{"trace.profile_cpu_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

// perLayer is layerMetrics plus one wall time per driver of any
// workload, so every traced run reports the same names.
func perLayer() []metricSpec {
	out := slices.Clone(layerMetrics)
	seen := map[string]bool{}
	for _, d := range experiments.All() {
		for _, w := range workloads {
			if !seen[d.ID] && slices.ContainsFunc(w.drivers(), func(x experiments.Driver) bool { return x.ID == d.ID }) {
				seen[d.ID] = true
				out = append(out, metricSpec{"experiments." + d.ID + ".wall_s", "s"})
			}
		}
	}
	return out
}

const (
	setupProbes = 15
	profileHz   = 1000
	jobTimeout  = 90 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed, passed to every driver")
	seconds := fs.Float64("seconds", 30, "measure for this long (at least one pass)")
	trace := fs.Int("trace", 0, "1 = add a profiled pass and print the per-layer table")
	probe := fs.Bool("probe-setup", false, "internal: exit just before the first dispatch")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seed < 1 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seed %d, seconds %g, trace %d)\n", *name, *seed, *seconds, *trace)
		return 2
	}
	jobs := harness.Jobs(w.drivers(), []int64{*seed}, w.scale)
	w.arm()
	if *probe {
		return 0 // set-up is complete; the parent times up to here
	}

	setup, err := measureSetup(args)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var passes []pass
	begin := time.Now()
	for len(passes) == 0 || time.Since(begin).Seconds() < *seconds {
		p := runPass(w, jobs, nil)
		passes = append(passes, p)
		fmt.Fprintf(stderr, "perfbench: %s pass %d: %.3fs wall, digest %s\n", w.name, len(passes), p.wall.Seconds(), p.digest)
		if p.failed > 0 {
			break
		}
	}
	var tr *traced
	if *trace == 1 && passes[0].failed == 0 {
		tr = runTraced(w, jobs)
		passes = append(passes, tr.pass)
		fmt.Fprintf(stderr, "perfbench: %s traced pass: %.3fs wall, digest %s\n", w.name, tr.wall.Seconds(), tr.digest)
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for i, p := range passes {
		res.Attempted += len(jobs)
		res.Failed += p.failed
		if i > 0 {
			res.Failed += p.differingJobs(passes[0])
		}
		if p.failed > 0 || p.digest != passes[0].digest {
			res.Correct = false
		}
	}
	if err := checkRecordedDigest(w.name, *seed, passes[0].digest); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		res.Correct = false
		res.Failed++
	}
	timed := passes
	if tr != nil {
		timed = passes[:len(passes)-1]
	}
	switch {
	case *trace == 1:
		tr.layerTable(&res, timed)
	default:
		put := func(name string, v float64) { res.put(endToEnd, name, v) }
		put("setup_s", setup.Seconds())
		put("wall_s", jobSum(timed, pass.jobWallSeconds))
		put("cpu_s", jobSum(timed, pass.jobCPUSeconds))
		put("alloc_mb", medianOf(timed, func(p pass) float64 { return float64(p.allocBytes) / 1e6 }))
		put("allocs_k", medianOf(timed, func(p pass) float64 { return float64(p.allocObjects) / 1e3 }))
	}

	info := map[string]any{
		"workload": w.name, "seed": *seed, "passes": len(passes),
		"digest": passes[0].digest, "machine": machine(),
	}
	line, _ := json.Marshal(info)
	fmt.Fprintln(stdout, string(line))
	line, _ = json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measureSetup times whole benchmark processes from exec to the point
// just before the first job dispatch (package initialisation, argument
// parsing, job-list construction, checker installation) and returns the
// median of several.
func measureSetup(args []string) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	var ds []time.Duration
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, append(slices.Clone(args), "--probe-setup")...)
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		ds = append(ds, time.Since(start))
	}
	slices.Sort(ds)
	return ds[len(ds)/2], nil
}

// pass is one run of the whole job list. It keeps no reports, so that
// later passes do not run against a heap grown by earlier ones.
type pass struct {
	wall, cpu    time.Duration
	jobWall      []time.Duration // per job, as the harness timed it
	jobCPU       []time.Duration // per job, from its start event to its done event
	fingerprints []string        // per manifest record
	allocBytes   uint64
	allocObjects uint64
	failed       int
	digest       string
	encode       time.Duration // the digest call: manifest JSON + sha256
}

// runPass runs the job list once, serially, and measures host cost over
// harness.Run alone. onDone, if set, runs after every job.
func runPass(w workload, jobs []harness.Job, onDone func()) pass {
	runtime.GC()
	p := pass{jobCPU: make([]time.Duration, len(jobs))}
	var jobStart time.Duration
	cfg := harness.Config{Suite: "perfbench/" + w.name, Parallel: 1, Timeout: jobTimeout,
		OnEvent: func(ev harness.Event) {
			switch ev.Type {
			case harness.JobStart:
				jobStart = cpuTime()
			case harness.JobDone:
				p.jobCPU[ev.Index] = cpuTime() - jobStart
				if onDone != nil {
					onDone()
				}
			}
		}}
	a0, cpu0 := heapAllocs(), cpuTime()
	start := time.Now()
	out := harness.Run(cfg, jobs)
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	a1 := heapAllocs()
	p.allocBytes, p.allocObjects = a1[0]-a0[0], a1[1]-a0[1]
	for _, r := range out.Results {
		p.jobWall = append(p.jobWall, r.Wall)
		if r.Status != report.RunOK {
			p.failed++
		}
	}
	for _, r := range out.Manifest.Runs {
		p.fingerprints = append(p.fingerprints, r.Fingerprint)
	}
	start = time.Now()
	p.digest = digest(out.Manifest)
	p.encode = time.Since(start)
	return p
}

func (p pass) jobWallSeconds(j int) float64 { return p.jobWall[j].Seconds() }

func (p pass) jobCPUSeconds(j int) float64 { return p.jobCPU[j].Seconds() }

// jobMedian is job j's median over the passes.
func jobMedian(ps []pass, j int, f func(pass, int) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p, j)
	}
	return median(xs)
}

// jobSum adds up every job's median over the passes. A burst of load
// from outside the process slows a few jobs of one pass; the per-job
// median discards it where a median of pass totals would not.
func jobSum(ps []pass, f func(pass, int) float64) float64 {
	sum := 0.0
	for j := range ps[0].jobWall {
		sum += jobMedian(ps, j, f)
	}
	return sum
}

// differingJobs counts jobs whose report fingerprint differs from the
// first pass's: the same seed must reproduce every record.
func (p pass) differingJobs(first pass) int {
	n := 0
	for i := range p.fingerprints {
		if p.fingerprints[i] != first.fingerprints[i] {
			n++
		}
	}
	return n
}

// digest is the sha256 of the canonical manifest bytes.
func digest(m *report.Manifest) string {
	sum := sha256.Sum256([]byte(m.JSON()))
	return hex.EncodeToString(sum[:])
}

// checkRecordedDigest compares the digest with the one an earlier run of
// this build recorded for the same workload and seed, and records it if
// there is none yet. The record lives in the checkout's build directory,
// which a rebuild of a different commit starts empty.
func checkRecordedDigest(name string, seed int64, d string) error {
	dir := filepath.Join(".bench_build", "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("digest record: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d", buildID(), name, seed))
	old, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		if err := os.WriteFile(path, []byte(d), 0o644); err != nil {
			return fmt.Errorf("digest record: %w", err)
		}
		return nil
	case err != nil:
		return fmt.Errorf("digest record: %w", err)
	case string(old) != d:
		return fmt.Errorf("digest %s differs from %s recorded by an earlier run of seed %d", d, old, seed)
	}
	return nil
}

// buildID names this binary's build, so that digest records of one build
// are never compared with another's.
func buildID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// heapAllocs returns cumulative heap bytes and objects allocated.
func heapAllocs() [2]uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return [2]uint64{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// gcCPU returns the runtime's estimate of CPU spent in the GC so far.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// traced is the profiled pass with its observer readings.
type traced struct {
	pass
	obs     *observer
	prof    attribution
	gc      float64
	ticks   int64
	virtual float64
	jobs    []harness.Job
}

// runTraced runs one pass under a CPU profile with the observer
// installed. The profile covers the pass; report.encode_s is the
// pass's own timing of its digest call.
func runTraced(w workload, jobs []harness.Job) *traced {
	tr := &traced{obs: &observer{}, jobs: jobs}
	core.SetDefaultInvariantFactory(tr.obs.factory(w.checkers))
	defer w.arm()
	metered := make([]harness.Job, len(jobs))
	for i, j := range jobs {
		run := j.Run
		j.Run = func(m *sim.Meter) *report.Report {
			rep := run(m)
			tr.ticks += m.Ticks()
			tr.virtual += m.VirtualSeconds()
			return rep
		}
		metered[i] = j
	}
	var buf bytes.Buffer
	gc0 := gcCPU()
	// pprof.StartCPUProfile fixes 100 Hz, too coarse for the smaller
	// layers; a rate set first wins (StartCPUProfile then prints a
	// harmless "cannot set cpu profile rate" line to standard error).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		panic(err) // only fails if a profile is already running
	}
	tr.pass = runPass(w, metered, tr.obs.harvest)
	pprof.StopCPUProfile()
	tr.gc = gcCPU() - gc0
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		panic(err) // runtime/pprof wrote it a moment ago
	}
	tr.prof = attribute(samples)
	return tr
}

// layerTable fills the per-layer metrics; timed are the untraced passes
// of the same run. A nil tr (the timed passes failed, so no traced pass
// ran) reports every metric as 0.
func (tr *traced) layerTable(res *result, timed []pass) {
	specs := perLayer()
	for _, s := range specs {
		res.Metrics[s.name] = metricValue{0, s.unit}
	}
	if tr == nil {
		return
	}
	put := func(name string, v float64) { res.put(specs, name, v) }
	// The kernel's timer tick may deliver fewer samples than profileHz
	// asks for, so the profile gives each layer's share and the pass's
	// measured CPU gives the seconds.
	scale := 0.0
	if tr.prof.total > 0 {
		scale = tr.cpu.Seconds() / tr.prof.total
	}
	for layer, sec := range tr.prof.layers {
		if !strings.Contains(layer, ".") {
			continue // the checkers' and the observer's own buckets
		}
		put(layer, sec*scale)
	}
	o := tr.obs
	put("workload.arrivals_unused", float64(o.unused))
	if o.submitted+o.unused > 0 {
		put("workload.arrivals_used_ratio", float64(o.submitted)/float64(o.submitted+o.unused))
	}
	put("core.requests_submitted", float64(o.submitted))
	put("core.requests_refused", float64(o.refused))
	put("core.cold_starts", float64(o.cold))
	if o.fired > 0 {
		put("instance.busy_per_tick", float64(o.busy)/float64(o.fired))
	}
	wall := medianOf(timed, func(p pass) float64 { return p.wall.Seconds() })
	put("sim.ticks", float64(tr.ticks))
	put("sim.virtual_s", tr.virtual)
	if tr.ticks > 0 {
		put("sim.host_us_per_tick", wall*1e6/float64(tr.ticks))
	}
	put("simtest.check_s", o.checkNS.Seconds())
	put("simtest.checks", float64(o.checks))
	put("report.encode_s", tr.encode.Seconds())
	put("runtime.gc_s", tr.gc)
	put("trace.profile_cpu_s", tr.cpu.Seconds())
	put("trace.overhead_ratio", (tr.wall.Seconds()-wall)/wall)
	for j, job := range tr.jobs {
		put("experiments."+job.Driver+".wall_s", jobMedian(timed, j, pass.jobWallSeconds))
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) put(specs []metricSpec, name string, v float64) {
	i := slices.IndexFunc(specs, func(s metricSpec) bool { return s.name == name })
	if i < 0 {
		panic("unlisted metric " + name)
	}
	r.Metrics[name] = metricValue{v, specs[i].unit}
}

func medianOf(ps []pass, f func(pass) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// machine describes where the numbers were taken.
func machine() map[string]any {
	m := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        "unknown",
		"commit":     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				m["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m["commit"] = s.Value
			case "vcs.modified":
				m["commit_modified"] = s.Value == "true"
			}
		}
	}
	return m
}

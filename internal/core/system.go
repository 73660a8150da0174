// Package core assembles Dilu's three planes — control (profiler +
// scheduler), scaling (global scaler + per-GPU RCKM), and serving
// (gateway, instances, GPUs) — into a runnable System, and can assemble
// every baseline configuration of the evaluation from the same parts
// (Exclusive, MPS-l/-r, TGS, FaST-GS+, INFless+-l/-r, and the -RC/-WA/-VS
// ablations).
//
// A System owns one deterministic simulation engine. Experiments deploy
// functions/jobs, run the virtual clock, and read metrics back.
package core

import (
	"dilu/internal/cluster"
	"dilu/internal/gpu"
	"dilu/internal/instance"
	"dilu/internal/metrics"
	"dilu/internal/rckm"
	"dilu/internal/scaler"
	"dilu/internal/sched"
	"dilu/internal/sim"
)

// Config selects the system variant and its substrate dimensions.
type Config struct {
	// Nodes and GPUsPerNode define the testbed (paper default: 5 × 4).
	Nodes       int
	GPUsPerNode int
	// Classes makes the fleet heterogeneous (mixed GPU generations);
	// empty keeps the uniform capacity-1.0 fleet.
	Classes []cluster.GPUClass
	// Policy is the RCKM token-issuing policy name: Dilu, MPS-l, MPS-r,
	// Exclusive, TGS, FaST-GS, Uncontrolled. Default Dilu.
	Policy string
	// Scheduler is the cluster scheduler name: Dilu, Exclusive,
	// INFless+-l, INFless+-r, FaST-GS+. Default Dilu.
	Scheduler string
	// SchedOpts tunes the Dilu scheduler (Ω, γ, ablations).
	SchedOpts sched.Options
	// RCKM tunes Algorithm 2 (MaxTokens, η values).
	RCKM rckm.Config
	// NewScaler builds a fresh horizontal-scaling policy per inference
	// function; nil disables horizontal scaling.
	NewScaler func() scaler.Policy
	// Admission is the gateway's admission policy; nil is the admit-all
	// pass-through (every submitted request is injected unconditionally,
	// the pre-gateway behaviour). Policies hold per-run state — build a
	// fresh value per System.
	Admission AdmissionPolicy
	// Resilience enables per-request timeout/retry and hedged dispatch
	// (see ResilienceConfig); nil disables the layer with zero overhead.
	Resilience *ResilienceConfig
	// Health enables the per-GPU health monitor and quarantine cycle
	// (see HealthConfig); nil disables monitoring.
	Health *HealthConfig
	// KernelCache gives every node an LRU cache of compiled kernels: a
	// cold launch whose target nodes all hold the function's kernels
	// skips its kernel-JIT stage, and the Dilu scheduler breaks score
	// ties toward cache-warm nodes. Off, every launch pays the full
	// staged cold start.
	KernelCache bool
	// Prewarm enables predictive prewarming (see PrewarmConfig); nil
	// disables the layer with zero overhead.
	Prewarm *PrewarmConfig
	// Seed drives all randomness.
	Seed int64
	// Meter, when non-nil, observes the engine's virtual-time progress
	// (harness throughput accounting). It never affects behaviour.
	Meter *sim.Meter
	// Invariants are read-only state checkers run at the end of every
	// fired tick and at the Run horizon; a violation panics. The default
	// factory's invariants (see SetDefaultInvariantFactory) are appended
	// to this list. Checkers never affect results and do not keep an
	// idle system from fast-forwarding.
	Invariants []Invariant
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 5
	}
	if c.GPUsPerNode <= 0 {
		c.GPUsPerNode = 4
	}
	if c.Policy == "" {
		c.Policy = "Dilu"
	}
	if c.Scheduler == "" {
		c.Scheduler = "Dilu"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Resilience != nil {
		r := c.Resilience.withDefaults()
		c.Resilience = &r
	}
	if c.Prewarm != nil {
		pw := c.Prewarm.withDefaults()
		c.Prewarm = &pw
	}
	return c
}

// System is one fully wired serverless DL serving stack.
type System struct {
	cfg Config
	Eng *sim.Engine
	Clu *cluster.Cluster

	scheduler sched.Scheduler
	managers  []*rckm.Manager // parallel to Clu.GPUs()
	mgrByGPU  map[*cluster.GPU]*rckm.Manager

	funcs      []*Function
	jobs       []*TrainingJob
	funcByName map[string]*Function

	// gw is the admission gateway (System.Submit); tenantFuncs and
	// tenantOrder index deployed functions by their deployment tenant
	// for fair-share admission and per-tenant SLO roll-ups.
	gw          gateway
	tenantFuncs map[string][]*Function
	tenantOrder []string

	// Active sets. The tick loop iterates exactly the entities whose
	// per-tick work is non-trivial, instead of scanning the whole world:
	// instances with queued or in-flight work, managers with registered
	// clients, and started-but-unreleased training jobs. Membership is
	// updated incrementally at attach/detach and demand transitions; each
	// set's predicate matches the guard a full scan would apply, so
	// results are bit-identical. attach and detachStages pair every
	// client with one resident on the manager's device, so a manager has
	// clients exactly while its device has residents: activeMgrs is also
	// the execution phase's device set. When every set is empty the
	// system turns its engine tick off, letting the engine fast-forward
	// across idle stretches.
	activeInsts []instance.Ticker
	instActive  map[instance.Ticker]bool
	activeMgrs  []*rckm.Manager
	liveJobs    []*TrainingJob

	rng    *sim.RNG
	reqSeq int64

	// GPUSeries samples occupied-GPU count once per second (SGT and
	// Figure 17 accounting).
	GPUSeries *metrics.Series

	churn ChurnStats

	// faults counts injected gray-failure events and mitigation
	// outcomes; faultsSeen latches once any fault fires so the SLO
	// summary's resilience block appears only on runs that need it.
	faults     FaultStats
	faultsSeen bool
	health     *healthMonitor

	// coldStats aggregates cold-launch activity (kernel-cache hits,
	// prewarm launches, total cold time) for the SLO summary's
	// cold-start block.
	coldStats ColdStartStats

	// llmDeployed latches once any deployment uses the token-level
	// runtime; it gates the 1 Hz KV-occupancy probe and the SLO summary's
	// LLM block, keeping every fixed-batch run byte-identical. The peaks
	// are run maxima over the probe's samples.
	llmDeployed bool
	kvPeakMB    float64
	kvPeakShare float64

	invariants []Invariant
	// checkedAt is the time of the last tick's invariant pass inside the
	// current Run (-1 before the first), so Run does not repeat a pass
	// over the state that tick just checked.
	checkedAt sim.Time
}

// NewSystem builds a system.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	policy, err := rckm.PolicyByName(cfg.Policy)
	if err != nil {
		return nil, err
	}
	clu := cluster.New(cluster.Config{Nodes: cfg.Nodes, GPUsPerNode: cfg.GPUsPerNode, WithDevices: true, Classes: cfg.Classes})
	sys := &System{
		cfg:         cfg,
		Eng:         sim.NewEngine(),
		Clu:         clu,
		rng:         sim.NewRNG(cfg.Seed),
		mgrByGPU:    make(map[*cluster.GPU]*rckm.Manager),
		instActive:  make(map[instance.Ticker]bool),
		funcByName:  make(map[string]*Function),
		tenantFuncs: make(map[string][]*Function),
		gw:          gateway{policy: cfg.Admission, stats: make(map[string]*TenantStats), report: cfg.Admission != nil},
		GPUSeries:   metrics.NewSeries("occupied-gpus"),
	}
	if cfg.Meter != nil {
		sys.Eng.SetMeter(cfg.Meter)
	}
	sys.invariants = append(sys.invariants, cfg.Invariants...)
	if defaultInvariantFactory != nil {
		sys.invariants = append(sys.invariants, defaultInvariantFactory()...)
	}
	if sys.scheduler, err = sched.New(cfg.Scheduler, clu, cfg.SchedOpts); err != nil {
		return nil, err
	}
	for _, g := range clu.GPUs() {
		m := rckm.NewManager(g.Dev, policy, cfg.RCKM)
		sys.managers = append(sys.managers, m)
		sys.mgrByGPU[g] = m
	}
	if cfg.Health != nil {
		sys.health = newHealthMonitor(sys, *cfg.Health)
	}
	if cfg.KernelCache {
		for _, n := range clu.Nodes {
			n.Kernels = gpu.NewKernelCache(kernelCacheCap)
		}
	}
	sys.Eng.SetTick(sys.tick)
	sys.updateTickActivity() // nothing deployed yet: start with the tick off
	// One-second sampler for scaling decisions and occupancy traces.
	var sampler func(now sim.Time)
	sampler = func(now sim.Time) {
		sys.sample(now)
		sys.Eng.Schedule(now+sim.Second, sampler)
	}
	sys.Eng.Schedule(sim.Second, sampler)
	return sys, nil
}

// MustSystem is NewSystem that panics on configuration errors (test and
// experiment convenience).
func MustSystem(cfg Config) *System {
	sys, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return sys
}

// Config returns the system configuration (with defaults applied).
func (sys *System) Config() Config { return sys.cfg }

// Scheduler exposes the cluster scheduler.
func (sys *System) Scheduler() sched.Scheduler { return sys.scheduler }

// Functions returns the deployed inference functions.
func (sys *System) Functions() []*Function { return sys.funcs }

// Jobs returns the deployed training jobs.
func (sys *System) Jobs() []*TrainingJob { return sys.jobs }

// Manager returns the RCKM manager of a GPU.
func (sys *System) Manager(g *cluster.GPU) *rckm.Manager { return sys.mgrByGPU[g] }

// wakeInst adds an instance runtime to the active set. Idempotent; idle
// instances are swept back out by the tick loop.
func (sys *System) wakeInst(t instance.Ticker) {
	if sys.instActive[t] {
		return
	}
	sys.instActive[t] = true
	sys.activeInsts = append(sys.activeInsts, t)
	sys.updateTickActivity()
}

// updateTickActivity turns the engine tick on or off to match whether
// the next tick would do any work. The contract of sim.Engine.SetTicking
// holds by construction: with every active set empty, tick is a no-op.
func (sys *System) updateTickActivity() {
	sys.Eng.SetTicking(len(sys.activeInsts) > 0 || len(sys.activeMgrs) > 0 || len(sys.liveJobs) > 0)
}

// tick is the world loop: demand, tokens, execution, completions. Each
// phase walks its active set; the sets' predicates mirror the guards the
// full scans used (instances with work, managers with clients, hence
// devices with residents), and every per-entity step touches only that
// entity's state, so iteration order within a phase cannot affect
// results.
func (sys *System) tick(now sim.Time) {
	for _, in := range sys.activeInsts {
		in.PreTick(now)
	}
	for _, m := range sys.activeMgrs {
		m.Issue(now)
	}
	for _, m := range sys.activeMgrs {
		m.Dev.ExecuteTick()
	}
	idled := false
	for _, in := range sys.activeInsts {
		in.PostTick(now)
		if !in.Busy() {
			idled = true
		}
	}
	if idled {
		kept := sys.activeInsts[:0]
		for _, in := range sys.activeInsts {
			if in.Busy() {
				kept = append(kept, in)
			} else {
				delete(sys.instActive, in)
			}
		}
		for i := len(kept); i < len(sys.activeInsts); i++ {
			sys.activeInsts[i] = nil
		}
		sys.activeInsts = kept
	}
	if len(sys.liveJobs) > 0 {
		kept := sys.liveJobs[:0]
		for _, j := range sys.liveJobs {
			j.maybeFinish(now)
			if !j.released {
				kept = append(kept, j)
			}
		}
		for i := len(kept); i < len(sys.liveJobs); i++ {
			sys.liveJobs[i] = nil
		}
		sys.liveJobs = kept
	}
	sys.updateTickActivity()
	sys.checkInvariants(now)
	sys.checkedAt = now
}

// sample runs the 1 Hz control loop: RPS accounting, horizontal scaling,
// occupancy traces.
func (sys *System) sample(now sim.Time) {
	sys.GPUSeries.Add(now, float64(sys.Clu.OccupiedCount()))
	if sys.llmDeployed {
		sys.sampleKV()
	}
	for _, f := range sys.funcs {
		f.sample(now)
	}
	if sys.health != nil {
		sys.health.sample(now)
	}
}

// Run advances the virtual clock by d. Attached invariants are verified
// once more at the horizon: events fired during an idle fast-forward
// span (scale decisions, keep-alive expiries) would otherwise escape
// checking when no further tick fires. The pass is skipped when a tick
// of this Run already checked at the horizon: nothing runs after a tick
// at the engine's horizon, so that tick checked the same state, and a
// run split into tick-aligned segments makes no extra passes.
func (sys *System) Run(d sim.Duration) {
	sys.checkedAt = -1
	sys.Eng.Run(sys.Eng.Now() + d)
	if now := sys.Eng.Now(); sys.checkedAt != now {
		sys.checkInvariants(now)
	}
}

// GPUSecondsUsed integrates the occupied-GPU trace (for SGT and the cost
// comparisons of Figure 17).
func (sys *System) GPUSecondsUsed() float64 { return sys.GPUSeries.Integral() }

// SLOSummary rolls up every deployed inference function's SLO accounting
// (violations, cold-start attribution, goodput, percentile attainment)
// over the virtual time elapsed so far. Functions appear in deployment
// order, so the summary is deterministic.
func (sys *System) SLOSummary() *metrics.SLOSummary {
	recs := make([]*metrics.LatencyRecorder, len(sys.funcs))
	for i, f := range sys.funcs {
		recs[i] = f.Rec
	}
	sum := metrics.SummarizeSLO(sys.Eng.Now(), recs...)
	sum.Gateway = sys.gatewaySLO(sys.Eng.Now())
	sum.Resilience = sys.resilienceSLO()
	sum.ColdStart = sys.coldStartSLO()
	sum.LLM = sys.llmSLO()
	return sum
}

func (sys *System) nextReqID() int64 {
	sys.reqSeq++
	return sys.reqSeq
}

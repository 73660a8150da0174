// Package rckm implements the Real-time CUDA Kernel Manager — the
// server side of Dilu's vertical scaling (§3.4.1, Algorithm 2) — together
// with the token-issuing policies of every GPU-level baseline the paper
// compares against (Exclusive, static MPS, TGS, FaST-GS).
//
// One Manager governs one GPU. Each collocated instance registers a
// Client (the stand-in for the LD_PRELOAD interception library): every
// 5 ms tick the manager inspects the clients' recent kernel launch rates
// and kernel-launch-cycle (KLC) inflation and issues tokens that bound
// the blocks each instance may execute next tick.
package rckm

import (
	"fmt"
	"slices"

	"dilu/internal/gpu"
	"dilu/internal/sim"
)

// State is the per-GPU global vertical-scaling state of Algorithm 2.
type State int

// Algorithm 2 states.
const (
	StateNone State = iota
	StateContention
	StateEmergency
	StateRecovery
)

func (s State) String() string {
	switch s {
	case StateNone:
		return "NONE"
	case StateContention:
		return "CONTENTION"
	case StateEmergency:
		return "EMERGENCY"
	case StateRecovery:
		return "RECOVERY"
	}
	return "?"
}

// rateWindowLen is the number of 5 ms periods in the kernel rate windows
// RW of Algorithm 2 (20 ms of history).
const rateWindowLen = 4

// klcWindowLen is the number of recent iterations a KLC bucket's minimum
// spans.
const klcWindowLen = 16

// Client is the manager-side view of one collocated instance.
type Client struct {
	ID           string
	Res          *gpu.Resident
	SLOSensitive bool    // inference functions; training is throughput-typed
	Request      float64 // profiled request quota (fraction of a GPU)
	Limit        float64 // profiled limit quota (fraction of a GPU)

	rates [rateWindowLen]float64
	rIdx  int

	// KLC tracking: the current iteration launch cycle compared against
	// a windowed minimum of *the same work regime* (per-batch bucket).
	// Bucketing keeps the batch-size dimension out of the baseline: a
	// batch-4 iteration is compared with recent batch-4 iterations, so
	// ΔT measures contention and token starvation, not batching. New
	// buckets are seeded by linearly scaling the profiled batch-1
	// reference. Windowing (not all-time minima) gives the controller
	// finite memory.
	klcCur   float64
	curWork  float64
	buckets  []klcBucket
	seedSec  float64
	seedWork float64

	rLast float64 // tokens issued in the previous cycle

	// cooldownUntil suppresses EMERGENCY re-entry after an episode ends
	// (hysteresis against grant-level oscillation); severe inflation
	// (ΔT > 2η) bypasses it.
	cooldownUntil sim.Time

	// pressured is the interception library's queue-pressure flag: the
	// instance is batching beyond its profiled IBS to drain a backlog.
	// In the paper's stack this state is visible to RCKM as sustained
	// KLC inflation (outsized iterations against the all-time floor);
	// with per-regime baselines it is reported explicitly and holds the
	// EMERGENCY scale-up until the backlog clears.
	pressured bool

	// TGS-specific opportunistic share.
	oppShare float64
}

// klcBucket is the recent-iteration window of one work regime.
type klcBucket struct {
	work float64
	win  [klcWindowLen]float64
	idx  int
	n    int
}

func (b *klcBucket) push(v float64) {
	b.win[b.idx] = v
	b.idx = (b.idx + 1) % klcWindowLen
	if b.n < klcWindowLen {
		b.n++
	}
}

func (b *klcBucket) min() float64 {
	if b.n == 0 {
		return 0
	}
	m := b.win[0]
	for i := 1; i < b.n; i++ {
		if v := b.win[i]; v < m {
			m = v
		}
	}
	return m
}

func (c *Client) bucketFor(work float64) *klcBucket {
	for i := range c.buckets {
		if c.buckets[i].work == work {
			return &c.buckets[i]
		}
	}
	c.buckets = append(c.buckets, klcBucket{work: work})
	b := &c.buckets[len(c.buckets)-1]
	if c.seedSec > 0 && c.seedWork > 0 {
		// Expected cycle for this regime, scaled from the profiled
		// batch-1 reference: time is linear in work at a fixed grant.
		b.push(c.seedSec * work / c.seedWork)
	}
	return b
}

// ObserveIteration reports a completed iteration's kernel launch cycle
// and its block work; ΔT compares the cycle against recent cycles of the
// same work regime.
func (c *Client) ObserveIteration(klc sim.Duration, work float64) {
	if work <= 0 || klc <= 0 {
		return
	}
	cur := klc.Seconds()
	c.klcCur = cur
	c.curWork = work
	c.bucketFor(work).push(cur)
}

// SeedKLC primes the reference launch cycle (seconds of an uncontended
// batch-1 iteration at the limit quota) and its work, from profiling
// knowledge, so instances launched under contention still detect
// inflation.
func (c *Client) SeedKLC(seconds float64) { c.SeedKLCWork(seconds, 1) }

// SeedKLCWork seeds the reference cycle together with its block work.
func (c *Client) SeedKLCWork(seconds, work float64) {
	if seconds <= 0 {
		return
	}
	c.seedSec = seconds
	if work <= 0 {
		work = 1
	}
	c.seedWork = work
	c.klcCur = seconds
	c.curWork = work
	c.bucketFor(work).push(seconds)
}

// DeltaT returns the relative KLC inflation (T_current − T_min)/T_min
// within the current work regime's recent window.
func (c *Client) DeltaT() float64 {
	if c.curWork <= 0 {
		return 0
	}
	min := c.bucketFor(c.curWork).min()
	if min <= 0 {
		return 0
	}
	return (c.klcCur - min) / min
}

// SetPressured reports whether the instance is burst-batching beyond its
// profiled IBS (queue backlog).
func (c *Client) SetPressured(p bool) { c.pressured = p }

// Pressured returns the queue-pressure flag.
func (c *Client) Pressured() bool { return c.pressured }

// LastIssued returns the tokens issued in the previous cycle.
func (c *Client) LastIssued() float64 { return c.rLast }

func (c *Client) shiftRateWindow() {
	c.rates[c.rIdx] = c.Res.ExecutedLast()
	c.rIdx = (c.rIdx + 1) % rateWindowLen
}

func (c *Client) windowSum() float64 {
	var s float64
	for _, r := range c.rates {
		s += r
	}
	return s
}

// Config holds the manager hyper-parameters of Algorithm 2.
type Config struct {
	// MaxTokens is the maximum number of tokens issuable per period for a
	// quota of 1.0, in block units. Zero defaults to the device capacity
	// per tick (the Figure 18(b) sensitivity sweeps multiples of it).
	MaxTokens float64
	// EtaViolation is the KLC inflation threshold that triggers the
	// EMERGENCY protective scale-up. An episode exits at half this
	// threshold (hysteresis) and re-entry is suppressed for
	// EmergencyCooldown unless inflation exceeds twice the threshold.
	EtaViolation float64
	// EtaIncrease is the multiplicative growth factor in RECOVERY.
	EtaIncrease float64
	// EmergencyCooldown is the re-entry suppression window.
	EmergencyCooldown sim.Duration

	// Ablation switches for the controller's stabilizing choices; all
	// default to the stabilized controller. They exist so the ablation
	// benches can quantify each interpretation against the naive reading
	// of Algorithm 2.
	//
	// NoHysteresis disables the exit threshold/cooldown (emergencies
	// re-trigger freely). NoPressureHold ignores the interception
	// library's queue-pressure flag. NoAntiWindup restores the paper's
	// literal EMERGENCY/CONTENTION formulas (unbounded ΔT decay and
	// R_last freeze).
	NoHysteresis   bool
	NoPressureHold bool
	NoAntiWindup   bool
}

// DefaultConfig returns the hyper-parameters used across the evaluation.
func DefaultConfig() Config {
	return Config{
		MaxTokens: gpu.DefaultCapacityPerTick, EtaViolation: 0.6,
		EtaIncrease: 1.25, EmergencyCooldown: 250 * sim.Millisecond,
	}
}

func (c Config) withDefaults() Config {
	if c.MaxTokens <= 0 {
		c.MaxTokens = gpu.DefaultCapacityPerTick
	}
	if c.EtaViolation <= 0 {
		// The paper's contention example is a KLC doubling (25→50 ms);
		// 0.6 triggers well before that while staying above ordinary
		// batch-growth noise (batch 1→2 inflates the cycle by ~35-50%).
		c.EtaViolation = 0.6
	}
	if c.EtaIncrease <= 1 {
		c.EtaIncrease = 1.25
	}
	if c.EmergencyCooldown <= 0 {
		c.EmergencyCooldown = 250 * sim.Millisecond
	}
	return c
}

// Manager issues tokens to the clients of one GPU under a Policy.
type Manager struct {
	Dev     *gpu.Device
	cfg     Config
	policy  Policy
	clients []*Client

	state      State
	owner      *Client
	ownerDelta float64
}

// NewManager creates a manager for dev under the given policy.
func NewManager(dev *gpu.Device, policy Policy, cfg Config) *Manager {
	return &Manager{Dev: dev, cfg: cfg.withDefaults(), policy: policy, state: StateNone}
}

// Config returns the manager's hyper-parameters.
func (m *Manager) Config() Config { return m.cfg }

// State returns the current Algorithm 2 global state.
func (m *Manager) State() State { return m.state }

// Policy returns the active token-issuing policy.
func (m *Manager) Policy() Policy { return m.policy }

// Clients returns the registered clients.
func (m *Manager) Clients() []*Client { return m.clients }

// Register adds an instance's client to the manager.
func (m *Manager) Register(c *Client) {
	if c.Limit <= 0 {
		c.Limit = 1
	}
	if c.Request <= 0 {
		c.Request = c.Limit
	}
	c.rLast = m.cfg.MaxTokens * c.Request
	c.oppShare = 0.02
	m.clients = append(m.clients, c)
}

// Unregister removes a client; if it owned the EMERGENCY state the state
// resets to NONE.
func (m *Manager) Unregister(c *Client) {
	for i, cl := range m.clients {
		if cl == c {
			m.clients = slices.Delete(m.clients, i, i+1)
			break
		}
	}
	if m.owner == c {
		m.owner = nil
		m.state = StateNone
		m.ownerDelta = 0
	}
}

// Issue runs one token cycle: shifts every client's rate window with the
// rate observed by the GPU last tick, applies the policy, and programs
// the residents' grants for the upcoming execution tick.
func (m *Manager) Issue(now sim.Time) {
	for _, c := range m.clients {
		c.shiftRateWindow()
	}
	m.policy.issue(m, now)
}

func (m *Manager) othersWindowSum(self *Client) float64 {
	var s float64
	for _, c := range m.clients {
		if c != self {
			s += c.windowSum()
		}
	}
	return s
}

// setState applies Algorithm 2's ownership rule: only the instance that
// set EMERGENCY may reset or modify it.
func (m *Manager) setState(c *Client, s State) {
	if m.state == StateEmergency && m.owner != nil && m.owner != c {
		return
	}
	m.state = s
	if s == StateEmergency {
		m.owner = c
	} else {
		m.owner = nil
		m.ownerDelta = 0
	}
}

// Policy computes per-client token grants. Implementations are the Dilu
// RCKM and the GPU-sharing baselines.
type Policy interface {
	Name() string
	issue(m *Manager, now sim.Time)
}

// ---------------------------------------------------------------------------
// Dilu: Algorithm 2 — introspective vertical elasticity.

// Dilu is the paper's fast scale-up/down control algorithm.
type Dilu struct{}

// Name implements Policy.
func (Dilu) Name() string { return "Dilu" }

func (Dilu) issue(m *Manager, now sim.Time) {
	if len(m.clients) == 1 && !m.clients[0].SLOSensitive {
		// Single resident: NONE state, full limit.
		c := m.clients[0]
		m.state = StateNone
		c.rLast = m.cfg.MaxTokens * c.Limit
		c.Res.SetGrant(c.rLast)
		return
	}
	// SLO-sensitive clients first: they drive the global state.
	for _, c := range m.clients {
		if !c.SLOSensitive {
			continue
		}
		dt := c.DeltaT()
		inEmergency := m.state == StateEmergency && m.owner == c
		var trigger bool
		if m.cfg.NoHysteresis {
			trigger = dt > m.cfg.EtaViolation
		} else {
			trigger = dt > m.cfg.EtaViolation &&
				(now >= c.cooldownUntil || dt > 2*m.cfg.EtaViolation)
			if inEmergency {
				// Hysteresis: hold the protective state until inflation
				// is mostly gone, then pay the cooldown before
				// re-entering.
				trigger = dt > m.cfg.EtaViolation/2
				if !trigger && !c.pressured {
					c.cooldownUntil = now + m.cfg.EmergencyCooldown
				}
			}
		}
		if c.pressured && !m.cfg.NoPressureHold {
			// Backlog bursts hold the protective scale-up regardless of
			// the per-iteration signal (§3.4.2: fast scale-up buys time
			// for the lazy scale-out).
			trigger = true
			if dt < 1 {
				dt = 1
			}
		}
		var issue float64
		switch {
		case trigger:
			// Protective scale-up.
			m.setState(c, StateEmergency)
			if m.owner == c {
				m.ownerDelta = dt
			}
			issue = m.cfg.MaxTokens * c.Limit
		case c.windowSum() == 0:
			// Own queue idle: scale down to request.
			m.setState(c, StateRecovery)
			issue = m.cfg.MaxTokens * c.Request
		case m.othersWindowSum(c) == 0:
			// Collocated instances idle: take more, gradually.
			m.setState(c, StateRecovery)
			issue = c.rLast * m.cfg.EtaIncrease
			if max := m.cfg.MaxTokens * c.Limit; issue > max {
				issue = max
			}
		default:
			m.setState(c, StateContention)
			issue = m.cfg.MaxTokens * c.Request
		}
		c.rLast = issue
		c.Res.SetGrant(issue)
	}
	// Throughput-typed (training) clients follow the global state.
	for _, c := range m.clients {
		if c.SLOSensitive {
			continue
		}
		var issue float64
		switch m.state {
		case StateNone:
			issue = m.cfg.MaxTokens * c.Limit
		case StateEmergency:
			issue = m.cfg.MaxTokens * c.Request
			if c.rLast < issue {
				issue = c.rLast
			}
			if d := m.ownerDelta; d > 1 {
				issue /= d
			}
			// The request quota exists to avoid starvation (§3.2); the
			// protective decay is floored at half of it so even a long
			// emergency leaves throughput jobs a workable share.
			if floor := 0.5 * m.cfg.MaxTokens * c.Request; !m.cfg.NoAntiWindup && issue < floor {
				issue = floor
			}
		case StateRecovery:
			issue = c.rLast * m.cfg.EtaIncrease
			if max := m.cfg.MaxTokens * c.Limit; issue > max {
				issue = max
			}
		case StateContention:
			if m.cfg.NoAntiWindup {
				issue = c.rLast // the paper's literal line 31
				break
			}
			// The request quota is the profiled starvation-avoidance
			// floor (§3.2): steady contention restores it, so transient
			// emergency decays do not wind the grant down permanently.
			issue = m.cfg.MaxTokens * c.Request
			if c.rLast > issue {
				issue = c.rLast
			}
		}
		c.rLast = issue
		c.Res.SetGrant(issue)
	}
}

// ---------------------------------------------------------------------------
// Static MPS: the official spatial-partition baseline.

// MPS issues constant grants from either the limit (MPS-l) or request
// (MPS-r) quotas. Because CUDA MPS cannot oversubscribe thread
// percentages, grants are normalized when the quotas sum above 1.
type MPS struct {
	UseLimit bool
}

// Name implements Policy.
func (p MPS) Name() string {
	if p.UseLimit {
		return "MPS-l"
	}
	return "MPS-r"
}

func (p MPS) issue(m *Manager, _ sim.Time) {
	var sum float64
	for _, c := range m.clients {
		sum += p.quota(c)
	}
	norm := 1.0
	if sum > 1 {
		norm = 1 / sum
	}
	for _, c := range m.clients {
		c.rLast = m.cfg.MaxTokens * p.quota(c) * norm
		c.Res.SetGrant(c.rLast)
	}
}

func (p MPS) quota(c *Client) float64 {
	if p.UseLimit {
		return c.Limit
	}
	return c.Request
}

// ---------------------------------------------------------------------------
// Exclusive: whole-GPU pass-through.

// Exclusive grants full capacity to every resident (experiments place a
// single instance per GPU under this policy).
type Exclusive struct{}

// Name implements Policy.
func (Exclusive) Name() string { return "Exclusive" }

func (Exclusive) issue(m *Manager, _ sim.Time) {
	for _, c := range m.clients {
		c.rLast = m.cfg.MaxTokens
		c.Res.SetGrant(c.rLast)
	}
}

// ---------------------------------------------------------------------------
// TGS: transparent GPU sharing (NSDI'23) — productive jobs first,
// opportunistic jobs probe for leftover capacity by trial.

// TGS models the adaptive rate control of TGS: high-priority (productive)
// clients always receive full tokens; low-priority (opportunistic) ones
// start from a tiny share that grows slowly while the productive job is
// unharmed and collapses multiplicatively on any interference signal.
type TGS struct{}

// Name implements Policy.
func (TGS) Name() string { return "TGS" }

func (TGS) issue(m *Manager, _ sim.Time) {
	// TGS designates exactly one productive job per GPU (the user-tagged
	// high-priority task): the first SLO-sensitive client, or the first
	// client outright. Everything else — including a second inference
	// function — runs opportunistically, which is why the paper measures
	// 405-442× latency inflation for collocated low-priority inference.
	productiveIdx := 0
	for i, c := range m.clients {
		if c.SLOSensitive {
			productiveIdx = i
			break
		}
	}
	interference := false
	productiveBusy := false
	for i, c := range m.clients {
		if i != productiveIdx {
			continue
		}
		if c.DeltaT() > 0.10 {
			interference = true
		}
		if c.windowSum() > 0 {
			productiveBusy = true
		}
	}
	for i, c := range m.clients {
		productive := i == productiveIdx
		if productive {
			c.rLast = m.cfg.MaxTokens
			c.Res.SetGrant(c.rLast)
			continue
		}
		switch {
		case interference:
			c.oppShare *= 0.05 // multiplicative collapse on harm
		case !productiveBusy:
			c.oppShare *= 1.05 // probe faster while productive is idle
		default:
			c.oppShare += 0.0005 // cautious incremental trial (~0.1/s)
		}
		if c.oppShare < 0.005 {
			c.oppShare = 0.005
		}
		if c.oppShare > 1 {
			c.oppShare = 1
		}
		c.rLast = m.cfg.MaxTokens * c.oppShare
		c.Res.SetGrant(c.rLast)
	}
}

// ---------------------------------------------------------------------------
// FaST-GS: spatio-temporal sharing on static MPS.

// FaSTGS models FaST-GShare: spatial partitions equal to MPS-l plus a
// temporal dequeue layer whose CUDA-event bookkeeping costs a fixed
// fraction of issued tokens. Saturated (small) models hide the overhead,
// larger near-linear models pay it — matching the paper's observation
// that the gap is negligible for BERT-base/VGG19.
type FaSTGS struct {
	// Overhead is the token fraction lost to event collection and
	// prioritized dequeuing. Zero defaults to 7%.
	Overhead float64
}

// Name implements Policy.
func (FaSTGS) Name() string { return "FaST-GS" }

func (p FaSTGS) issue(m *Manager, _ sim.Time) {
	ovh := p.Overhead
	if ovh <= 0 {
		ovh = 0.07
	}
	var sum float64
	for _, c := range m.clients {
		sum += c.Limit
	}
	norm := 1.0
	if sum > 1 {
		norm = 1 / sum
	}
	// Temporal layer: idle partitions are redistributed to busy clients,
	// but each period's issue pays the bookkeeping overhead.
	var idleShare float64
	busy := 0
	for _, c := range m.clients {
		if c.windowSum() == 0 {
			idleShare += c.Limit * norm
		} else {
			busy++
		}
	}
	for _, c := range m.clients {
		share := c.Limit * norm
		if c.windowSum() == 0 {
			share *= 0.25 // parked partition
		} else if busy > 0 {
			share += idleShare / float64(busy)
		}
		c.rLast = m.cfg.MaxTokens * share * (1 - ovh)
		c.Res.SetGrant(c.rLast)
	}
}

// ---------------------------------------------------------------------------
// Uncontrolled: the -VS ablation.

// Uncontrolled grants every client its limit quota unconditionally and
// without normalization — collocation without any vertical scaling
// control. Training freely infringes on inference compute, which is what
// inflates SVR by >150% in the Figure 15 ablation.
type Uncontrolled struct{}

// Name implements Policy.
func (Uncontrolled) Name() string { return "Uncontrolled" }

func (Uncontrolled) issue(m *Manager, _ sim.Time) {
	for _, c := range m.clients {
		c.rLast = m.cfg.MaxTokens * c.Limit
		c.Res.SetGrant(c.rLast)
	}
}

// PolicyByName constructs a policy from its evaluation label.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "Dilu":
		return Dilu{}, nil
	case "MPS-l":
		return MPS{UseLimit: true}, nil
	case "MPS-r":
		return MPS{}, nil
	case "Exclusive":
		return Exclusive{}, nil
	case "TGS":
		return TGS{}, nil
	case "FaST-GS":
		return FaSTGS{}, nil
	case "Uncontrolled":
		return Uncontrolled{}, nil
	}
	return nil, fmt.Errorf("rckm: unknown policy %q", name)
}

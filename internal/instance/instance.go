// Package instance implements the serving-plane runtimes of Dilu's DL
// functions: batched inference servers (including generative LLM servers
// with prefill/decode structure and pipeline sharding over GPU
// fragments), and DDP / pipeline-parallel training jobs with their
// gradient-sync idle phases.
//
// Instances interact with the substrate through two hooks called by the
// simulation world every 5 ms tick, around the RCKM token cycle and GPU
// execution:
//
//	PreTick  — enqueue block demand (form batches, start iterations)
//	PostTick — detect completions, record latencies, report KLCs
package instance

import (
	"fmt"

	"dilu/internal/gpu"
	"dilu/internal/metrics"
	"dilu/internal/model"
	"dilu/internal/rckm"
	"dilu/internal/sim"
)

// Request is one inference invocation.
type Request struct {
	ID       int64
	Arrive   sim.Time // gateway arrival
	Dispatch sim.Time // set when handed to an instance

	// Gateway metadata (see core.Request). Tenant is the accounting
	// identity; Priority and Deadline (absolute completion target, zero =
	// none) order the gateway's pending queue and feed deadline-aware
	// admission. The serving plane carries them but executes batches
	// identically for all values.
	Tenant   string
	Priority int
	Deadline sim.Time

	// Resilience metadata (see core.ResilienceConfig). Attempt counts
	// timeout-driven redeliveries of this request (0 = first try); Hedge
	// marks a speculative duplicate racing the primary copy. Both are
	// zero on every request when resilience is off.
	Attempt int
	Hedge   bool

	// ColdStage is the cold-start stage on this request's critical path,
	// stamped by the serving plane when a launch's activation flush
	// dispatches it (ColdNone when it never waited for a launch). The
	// recorder attributes a violation to it.
	ColdStage metrics.ColdStage

	// Token-level metadata for autoregressive (LLM) requests: the prompt
	// length to prefill and the number of output tokens to decode. Zero
	// on every request of a non-LLM function.
	PromptTokens int
	DecodeTokens int
}

// KVBacking is the memory substrate an LLM instance charges KV-cache
// growth against — one per stage, bridging to the cluster placement and
// GPU resident so quota conservation holds at every granularity.
// ReserveKV returns false when the device lacks headroom (cache full).
type KVBacking interface {
	ReserveKV(mb float64) bool
	ReleaseKV(mb float64)
}

// Stage couples one GPU execution context with its RCKM client. Single-
// GPU instances have one stage; fragmented LLM instances have one per
// pipeline shard. KV is non-nil only on token-level LLM instances.
type Stage struct {
	Res    *gpu.Resident
	Client *rckm.Client
	KV     KVBacking
}

// Ticker is implemented by every instance runtime. Busy reports whether
// the runtime has per-tick work pending — queued or in-flight requests
// for inference, an unfinished active job for training. The simulation
// world uses it to keep idle runtimes out of the tick loop; PreTick and
// PostTick are no-ops (beyond flag housekeeping the runtime performs at
// its own idle transition) whenever Busy is false.
type Ticker interface {
	PreTick(now sim.Time)
	PostTick(now sim.Time)
	Busy() bool
}

// Server is the request-serving surface the dispatch plane programs
// against: the fixed-batch Inference runtime and the token-level LLM
// runtime both implement it, so placement, load balancing, resilience
// steals, and teardown are runtime-agnostic.
type Server interface {
	Ticker
	InstID() string
	SetActive(active bool)
	Active() bool
	Enqueue(req Request)
	QueueLen() int
	InFlight() int
	Load() int
	Served() int64
	SetOnComplete(fn func(req Request, done sim.Time) bool)
	StealQueued(id int64) (Request, bool)
	HasRequest(id int64) bool
	DropQueue() []Request
	Abort() []Request
}

// satKTable memoizes Spec.InferSatK by batch size. InferSatK runs a
// 60-step tanh bisection and applySaturation asks for it at every batch
// formation, while an instance only ever sees a few batch sizes.
type satKTable []float64

// at returns spec.InferSatK(n), computing it on first use. A zero entry
// is one not computed yet (a K that is really 0 is just recomputed).
// The table is sized for every batch size up to model.MaxIBS at once.
func (t *satKTable) at(spec *model.Spec, n int) float64 {
	if n >= len(*t) {
		*t = append(*t, make([]float64, max(n, model.MaxIBS)+1-len(*t))...)
	}
	k := (*t)[n]
	if k == 0 {
		k = spec.InferSatK(n)
		(*t)[n] = k
	}
	return k
}

// ---------------------------------------------------------------------------
// Inference.

// Inference is a batched inference server for one function instance.
type Inference struct {
	ID   string
	Func string
	Spec *model.Spec
	IBS  int

	Stages []Stage
	Rec    *metrics.LatencyRecorder

	active bool
	queue  []Request
	satK   satKTable

	// In-flight batch.
	batch      []Request
	steps      int // remaining execution steps (1 for discriminative; 1+tokens for generative)
	totalSteps int
	stepWork   float64 // per-stage work of the current step
	stepStart  sim.Time
	batchStart sim.Time

	served        int64
	busySince     sim.Time
	lastServedAt  sim.Time
	stepsObserved int64

	// onComplete, when set, intercepts each batch completion before the
	// latency sample is recorded. Returning false discards the
	// completion unrecorded — a hedge copy that lost its race. Nil (the
	// default) records everything, byte-identically to the pre-hook
	// path.
	onComplete func(req Request, done sim.Time) bool
}

// NewInference builds an inference instance. Stages must be non-empty;
// rec may be shared across the function's instances.
func NewInference(id, fn string, spec *model.Spec, ibs int, stages []Stage, rec *metrics.LatencyRecorder) *Inference {
	if len(stages) == 0 {
		panic("instance: inference needs at least one stage")
	}
	if ibs < 1 {
		ibs = 1
	}
	inst := &Inference{ID: id, Func: fn, Spec: spec, IBS: ibs, Stages: stages, Rec: rec}
	inst.applySaturation(1)
	return inst
}

// InstID returns the instance identifier (Server interface; ID stays a
// field for struct-literal construction in tests).
func (in *Inference) InstID() string { return in.ID }

// SetOnComplete installs the resilience layer's completion hook. The
// hook sees every finishing request; returning false suppresses the
// latency sample and the served count for that copy.
func (in *Inference) SetOnComplete(fn func(req Request, done sim.Time) bool) { in.onComplete = fn }

// StealQueued removes and returns the queued (not yet executing) copy
// of request id, if present. The resilience layer uses it to pull a
// timed-out request off a straggling instance's queue for retry
// elsewhere, and to cancel hedge losers that never started executing.
func (in *Inference) StealQueued(id int64) (Request, bool) {
	for i, req := range in.queue {
		if req.ID == id {
			in.queue = append(in.queue[:i], in.queue[i+1:]...)
			return req, true
		}
	}
	return Request{}, false
}

// HasRequest reports whether a copy of request id is held by this
// instance, queued or executing.
func (in *Inference) HasRequest(id int64) bool {
	for _, req := range in.batch {
		if req.ID == id {
			return true
		}
	}
	for _, req := range in.queue {
		if req.ID == id {
			return true
		}
	}
	return false
}

// SetActive marks the instance ready to serve (cold start complete).
func (in *Inference) SetActive(active bool) { in.active = active }

// Active reports whether the instance serves requests.
func (in *Inference) Active() bool { return in.active }

// Enqueue hands a request to the instance's local queue.
func (in *Inference) Enqueue(req Request) { in.queue = append(in.queue, req) }

// QueueLen returns queued (not yet executing) requests.
func (in *Inference) QueueLen() int { return len(in.queue) }

// InFlight returns the size of the executing batch.
func (in *Inference) InFlight() int { return len(in.batch) }

// Load returns queued plus in-flight requests — the dispatch signal used
// by the least-loaded balancer.
func (in *Inference) Load() int { return len(in.queue) + len(in.batch) }

// Served returns the number of completed requests.
func (in *Inference) Served() int64 { return in.served }

func (in *Inference) applySaturation(ibs int) {
	k := in.satK.at(in.Spec, ibs)
	for _, st := range in.Stages {
		st.Res.SatK = k
	}
}

// PreTick forms a batch from the queue when the previous one finished.
// Under queue pressure the batch grows past the profiled IBS (adaptive
// batching à la BATCH/INFless) up to twice the profiled size — the burst
// regime the doubled limit quota is provisioned for.
func (in *Inference) PreTick(now sim.Time) {
	if !in.active || in.steps > 0 || len(in.queue) == 0 {
		if len(in.queue) <= 2*in.IBS {
			for _, st := range in.Stages {
				if st.Client != nil {
					st.Client.SetPressured(false)
				}
			}
		}
		return
	}
	maxBatch := in.IBS
	pressured := len(in.queue) > 2*in.IBS
	if pressured {
		maxBatch = 2 * in.IBS
		if maxBatch > model.MaxIBS {
			maxBatch = model.MaxIBS
		}
	}
	for _, st := range in.Stages {
		if st.Client != nil {
			st.Client.SetPressured(pressured)
		}
	}
	n := len(in.queue)
	if n > maxBatch {
		n = maxBatch
	}
	in.batch = append(in.batch[:0], in.queue[:n]...)
	in.queue = in.queue[n:]
	in.batchStart = now
	in.applySaturation(n)
	if in.Spec.Generative {
		in.totalSteps = 1 + in.Spec.AvgOutTokens
		in.steps = in.totalSteps
		in.startStep(now, in.prefillWork(n))
	} else {
		in.totalSteps = 1
		in.steps = 1
		in.startStep(now, in.Spec.InferWork(n))
	}
}

func (in *Inference) prefillWork(ibs int) float64 {
	return in.Spec.PrefillWork * (1 + in.Spec.InferPerItem*float64(ibs-1))
}

func (in *Inference) startStep(now sim.Time, work float64) {
	in.stepStart = now
	in.stepWork = work / float64(len(in.Stages))
	for _, st := range in.Stages {
		st.Res.AddWork(in.stepWork)
	}
}

func (in *Inference) stepDone() bool {
	for _, st := range in.Stages {
		if st.Res.Pending() > 0 {
			return false
		}
	}
	return true
}

// completionTime interpolates when the slowest stage drained. A tick
// labelled T covers the execution interval [T, T+period): work enqueued
// in PreTick(T) runs during that interval, so a drain at fraction f is
// stamped T + f·period (never earlier than the enqueue).
func (in *Inference) completionTime(now sim.Time) sim.Time {
	frac := 0.0
	for _, st := range in.Stages {
		if f := st.Res.CompletionFraction(); f > frac {
			frac = f
		}
	}
	return now + sim.Duration(frac*float64(sim.TickPeriod))
}

// PostTick advances steps and completes batches.
func (in *Inference) PostTick(now sim.Time) {
	if in.steps == 0 || !in.stepDone() {
		return
	}
	done := in.completionTime(now)
	klc := done - in.stepStart
	// Prefill steps of generative batches are skipped for KLC tracking:
	// the decode step is the TPOT-relevant iteration and mixing the two
	// would poison the T_min floor.
	prefill := in.Spec.Generative && in.steps == in.totalSteps && in.totalSteps > 1
	if !prefill {
		for _, st := range in.Stages {
			if st.Client != nil {
				st.Client.ObserveIteration(klc, in.stepWork)
			}
		}
	}
	in.stepsObserved++
	in.steps--
	if in.steps > 0 {
		in.startStep(now, in.Spec.DecodeStepWork(len(in.batch)))
		return
	}
	// Batch complete: record latencies, attributing each sample's
	// gateway wait (Dispatch − Arrive; positive only when the request
	// queued for an instance) so SLO accounting can separate cold-start
	// violations from execution-path ones.
	for _, req := range in.batch {
		if in.onComplete != nil && !in.onComplete(req, done) {
			continue // duplicate copy: already served elsewhere
		}
		lat := done - req.Arrive
		if in.Spec.Generative && in.Spec.AvgOutTokens > 0 {
			lat = lat / sim.Duration(in.Spec.AvgOutTokens) // time per output token
		}
		if in.Rec != nil {
			in.Rec.ObserveWaitStage(lat, req.Dispatch-req.Arrive, req.ColdStage)
		}
		in.served++
	}
	in.lastServedAt = done
	in.batch = in.batch[:0]
	if len(in.queue) == 0 {
		// The instance is about to leave the world's active set; perform
		// the pressure-flag clearing its next (never-delivered) PreTick
		// would have done, so RCKM never sees a stale backlog signal.
		for _, st := range in.Stages {
			if st.Client != nil {
				st.Client.SetPressured(false)
			}
		}
	}
}

// DropQueue fails queued requests back to the caller (instance teardown);
// it returns them for re-dispatch.
func (in *Inference) DropQueue() []Request {
	q := in.queue
	in.queue = nil
	return q
}

// Abort cancels the in-flight batch and drops the queue — the forced
// teardown of a node failure or migration, where waiting for the batch
// is not an option. Every uncompleted request (executing ones first, in
// batch order, then the queue) is returned for gateway re-dispatch with
// its original Arrive stamp, so retried requests pay their lost work in
// recorded latency. Execution state resets, leaving the instance idle.
func (in *Inference) Abort() []Request {
	reqs := make([]Request, 0, len(in.batch)+len(in.queue))
	reqs = append(reqs, in.batch...)
	reqs = append(reqs, in.queue...)
	in.batch = in.batch[:0]
	in.queue = nil
	in.steps = 0
	in.totalSteps = 0
	in.stepWork = 0
	for _, st := range in.Stages {
		if st.Client != nil {
			st.Client.SetPressured(false)
		}
	}
	return reqs
}

// Busy implements Ticker: queued or in-flight work exists. Note this is
// independent of Active — a descheduled instance still drains its
// in-flight batch.
func (in *Inference) Busy() bool { return len(in.queue) > 0 || in.steps > 0 }

func (in *Inference) String() string {
	return fmt.Sprintf("inf[%s %s ibs=%d stages=%d]", in.ID, in.Spec.Name, in.IBS, len(in.Stages))
}

// ---------------------------------------------------------------------------
// Training.

// TrainPhase is the position inside a training iteration.
type TrainPhase int

// Training phases.
const (
	TrainCompute TrainPhase = iota
	TrainSyncing
)

// Training is a distributed training job: W workers iterating in lockstep
// (DDP) or a pipeline of stage workers (DeepSpeed fine-tuning). Each
// worker owns a Stage on a distinct GPU; an iteration is compute on every
// worker followed by a communication phase that leaves GPUs idle — the
// fragmentation source of Observation-2.
type Training struct {
	ID   string
	Func string
	Spec *model.Spec

	Workers  []Stage
	Pipeline bool // pipeline-parallel fine-tuning (samples not multiplied by workers)

	active     bool
	phase      TrainPhase
	syncUntil  sim.Time
	iterStart  sim.Time
	iters      int64
	samples    float64
	computeSum sim.Duration

	// TargetIters>0 ends the job and records DoneAt (JCT accounting).
	TargetIters int64
	DoneAt      sim.Time
	StartedAt   sim.Time
	finished    bool
}

// NewTraining builds a training job over the given worker stages.
func NewTraining(id, fn string, spec *model.Spec, workers []Stage) *Training {
	if len(workers) == 0 {
		panic("instance: training needs at least one worker")
	}
	tr := &Training{ID: id, Func: fn, Spec: spec, Workers: workers,
		Pipeline: spec.TrainStages > 1}
	k := spec.TrainSatK()
	for _, w := range workers {
		w.Res.SatK = k
	}
	return tr
}

// SetActive starts (or pauses) the job.
func (tr *Training) SetActive(active bool) { tr.active = active }

// Active reports whether the job is running.
func (tr *Training) Active() bool { return tr.active }

// Finished reports whether the job hit its iteration target.
func (tr *Training) Finished() bool { return tr.finished }

// Busy implements Ticker: an active, unfinished job iterates every tick
// (compute polling and sync-phase countdowns both ride the tick loop).
func (tr *Training) Busy() bool { return tr.active && !tr.finished }

// Iterations returns completed iterations.
func (tr *Training) Iterations() int64 { return tr.iters }

// Samples returns processed samples across all workers.
func (tr *Training) Samples() float64 { return tr.samples }

// Throughput returns samples/second since the job became active.
func (tr *Training) Throughput(now sim.Time) float64 {
	if tr.StartedAt == 0 && tr.iters == 0 {
		return 0
	}
	end := now
	if tr.finished {
		end = tr.DoneAt
	}
	dur := (end - tr.StartedAt).Seconds()
	if dur <= 0 {
		return 0
	}
	return tr.samples / dur
}

// PreTick launches the next iteration's compute when ready.
func (tr *Training) PreTick(now sim.Time) {
	if !tr.active || tr.finished {
		return
	}
	if tr.StartedAt == 0 {
		tr.StartedAt = now
	}
	switch tr.phase {
	case TrainSyncing:
		if now < tr.syncUntil {
			return
		}
		tr.phase = TrainCompute
		tr.launchCompute(now)
	case TrainCompute:
		if tr.iterStart == 0 {
			tr.launchCompute(now)
		}
	}
}

func (tr *Training) launchCompute(now sim.Time) {
	tr.iterStart = now
	for _, w := range tr.Workers {
		w.Res.AddWork(tr.Spec.TrainWork)
	}
}

func (tr *Training) computeDone() bool {
	for _, w := range tr.Workers {
		if w.Res.Pending() > 0 {
			return false
		}
	}
	return true
}

// PostTick detects compute completion (barrier across workers — the
// barrel effect of Principle-1) and enters the sync phase.
func (tr *Training) PostTick(now sim.Time) {
	if !tr.active || tr.finished || tr.phase != TrainCompute || tr.iterStart == 0 {
		return
	}
	if !tr.computeDone() {
		return
	}
	// Tick T covers [T, T+period); see Inference.completionTime.
	frac := 0.0
	for _, w := range tr.Workers {
		if f := w.Res.CompletionFraction(); f > frac {
			frac = f
		}
	}
	done := now + sim.Duration(frac*float64(sim.TickPeriod))
	klc := done - tr.iterStart
	for _, w := range tr.Workers {
		if w.Client != nil {
			w.Client.ObserveIteration(klc, tr.Spec.TrainWork)
		}
	}
	tr.computeSum += klc
	tr.iters++
	if tr.Pipeline {
		tr.samples += float64(tr.Spec.TrainSamples)
	} else {
		tr.samples += float64(tr.Spec.TrainSamples * len(tr.Workers))
	}
	if tr.TargetIters > 0 && tr.iters >= tr.TargetIters {
		tr.finished = true
		tr.DoneAt = done + tr.Spec.TrainSync
		return
	}
	tr.phase = TrainSyncing
	tr.syncUntil = done + tr.Spec.TrainSync
	tr.iterStart = 0
}

// Preempt swaps the job's entire worker set after an eviction (node
// failure or drain): checkpoint-restart semantics. The interrupted
// iteration is abandoned — at most one iteration of work is lost — and
// the job resumes from a fresh compute phase on the new workers at the
// next tick. Completed-iteration and sample counters are preserved.
func (tr *Training) Preempt(workers []Stage) {
	if len(workers) == 0 {
		panic("instance: training needs at least one worker")
	}
	k := tr.Spec.TrainSatK()
	for _, w := range workers {
		w.Res.SatK = k
	}
	tr.Workers = workers
	tr.phase = TrainCompute
	tr.iterStart = 0
	tr.syncUntil = 0
}

// AtBoundary reports whether the job is between iterations (syncing or
// not yet launched) — the only safe point to change the worker set.
func (tr *Training) AtBoundary() bool {
	return !tr.active || tr.phase == TrainSyncing || tr.iterStart == 0
}

// TryAddWorker joins a new worker at an iteration boundary (the elastic
// serverless training extension of the paper's §7). It fails outside
// boundaries; callers retry on their next control period.
func (tr *Training) TryAddWorker(st Stage) bool {
	if tr.finished || !tr.AtBoundary() {
		return false
	}
	st.Res.SatK = tr.Spec.TrainSatK()
	tr.Workers = append(tr.Workers, st)
	return true
}

// TryRemoveWorker retires the most recently added worker at an iteration
// boundary, returning its stage for the caller to detach. Jobs never
// shrink below one worker.
func (tr *Training) TryRemoveWorker() (Stage, bool) {
	if tr.finished || !tr.AtBoundary() || len(tr.Workers) <= 1 {
		return Stage{}, false
	}
	last := tr.Workers[len(tr.Workers)-1]
	tr.Workers = tr.Workers[:len(tr.Workers)-1]
	last.Res.ClearWork()
	return last, true
}

// MeanIterTime returns the average compute time per iteration.
func (tr *Training) MeanIterTime() sim.Duration {
	if tr.iters == 0 {
		return 0
	}
	return tr.computeSum / sim.Duration(tr.iters)
}

func (tr *Training) String() string {
	kind := "ddp"
	if tr.Pipeline {
		kind = "pipeline"
	}
	return fmt.Sprintf("train[%s %s %s x%d]", tr.ID, tr.Spec.Name, kind, len(tr.Workers))
}

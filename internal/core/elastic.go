package core

import (
	"slices"

	"dilu/internal/instance"
	"dilu/internal/rckm"
	"dilu/internal/sched"
	"dilu/internal/sim"
)

// ElasticOpts enables elastic serverless training for a job — the §7
// future-work direction the paper names ("more elastic serverless
// training"), implemented in the spirit of ElasticFlow: a data-parallel
// job grows extra workers into residual cluster capacity and retires
// them when their GPUs come under inference pressure.
type ElasticOpts struct {
	// MinWorkers and MaxWorkers bound the worker count. Min defaults to
	// the initial worker count, Max to 2× it.
	MinWorkers int
	MaxWorkers int
	// Every is the control period (default 2 s). Worker-set changes only
	// land at iteration boundaries, so the effective cadence is bounded
	// by iteration length too.
	Every sim.Duration
}

func (e ElasticOpts) withDefaults(initial int) ElasticOpts {
	if e.MinWorkers <= 0 {
		e.MinWorkers = initial
	}
	if e.MaxWorkers <= 0 {
		e.MaxWorkers = 2 * initial
	}
	if e.MaxWorkers < e.MinWorkers {
		e.MaxWorkers = e.MinWorkers
	}
	if e.Every <= 0 {
		e.Every = 2 * sim.Second
	}
	return e
}

// elasticState tracks one elastic job's controller.
type elasticState struct {
	opts ElasticOpts
	// grown maps each added worker's stage to its reservation so it can
	// be released on shrink.
	grown []elasticWorker
	seq   int
	// growPauseUntil damps shrink→grow oscillation: after retreating
	// from a pressured GPU the job stays at its reduced size for a
	// while instead of immediately re-claiming the same fragment.
	growPauseUntil sim.Time
}

type elasticWorker struct {
	stage instance.Stage
	dec   sched.Decision
}

// enableElastic arms the controller for a deployed job.
func (tj *TrainingJob) enableElastic(opts ElasticOpts, initial int) {
	tj.elastic = &elasticState{opts: opts.withDefaults(initial)}
	var step func(now sim.Time)
	step = func(now sim.Time) {
		tj.elasticStep(now)
		tj.sys.Eng.Schedule(now+tj.elastic.opts.Every, step)
	}
	tj.sys.Eng.Schedule(tj.elastic.opts.Every, step)
}

// Workers returns the job's current worker count.
func (tj *TrainingJob) Workers() int {
	if tj.Job == nil {
		return 0
	}
	return len(tj.Job.Workers)
}

// Elastic reports whether the job scales its worker set.
func (tj *TrainingJob) Elastic() bool { return tj.elastic != nil }

// elasticStep runs one control period: shrink away from pressured GPUs,
// otherwise grow into residual capacity.
func (tj *TrainingJob) elasticStep(now sim.Time) {
	es := tj.elastic
	if es == nil || tj.Job == nil || tj.released || tj.Job.Finished() {
		return
	}
	// Shrink: any grown worker whose GPU is protecting an SLO-sensitive
	// task gets retired. The job's TryRemoveWorker pops the most recent
	// worker, so pressured workers are rotated to the tail first.
	if len(tj.Job.Workers) > es.opts.MinWorkers && len(es.grown) > 0 {
		for i := len(es.grown) - 1; i >= 0; i-- {
			w := es.grown[i]
			mgr := tj.sys.mgrByGPU[w.dec.GPUs[0]]
			if mgr == nil || mgr.State() != rckm.StateEmergency {
				continue
			}
			if !tj.Job.AtBoundary() {
				return
			}
			// Move the pressured worker to the tail so the boundary pop
			// removes exactly it.
			last := len(tj.Job.Workers) - 1
			for j, st := range tj.Job.Workers {
				if st == w.stage {
					tj.Job.Workers[j], tj.Job.Workers[last] = tj.Job.Workers[last], tj.Job.Workers[j]
					break
				}
			}
			if _, ok := tj.Job.TryRemoveWorker(); ok {
				tj.sys.detachStages(w.dec, []instance.Stage{w.stage})
				w.dec.Release()
				es.grown = slices.Delete(es.grown, i, i+1)
				es.growPauseUntil = now + 15*es.opts.Every
			}
			return
		}
	}
	// Grow: place one more worker if the scheduler finds room and the
	// job is at a boundary.
	if now < es.growPauseUntil || len(tj.Job.Workers) >= es.opts.MaxWorkers || !tj.Job.AtBoundary() {
		return
	}
	es.seq++
	decs, err := tj.sys.scheduler.Schedule(sched.Request{
		Func: tj.Name, Profile: tj.Profile, Instances: 1,
	})
	if err != nil {
		return
	}
	stages, err := tj.sys.attach(decs[0], false, tj.Profile)
	if err != nil {
		decs[0].Release()
		return
	}
	if !tj.Job.TryAddWorker(stages[0]) {
		tj.sys.detachStages(decs[0], stages)
		decs[0].Release()
		return
	}
	es.grown = append(es.grown, elasticWorker{stage: stages[0], dec: decs[0]})
}

// releaseElastic tears down grown workers when the job finishes.
func (tj *TrainingJob) releaseElastic() {
	if tj.elastic == nil {
		return
	}
	for _, w := range tj.elastic.grown {
		tj.sys.detachStages(w.dec, []instance.Stage{w.stage})
		w.dec.Release()
	}
	tj.elastic.grown = nil
}

package core

import (
	"fmt"
	"slices"

	"dilu/internal/cluster"
	"dilu/internal/instance"
	"dilu/internal/model"
	"dilu/internal/profiler"
	"dilu/internal/rckm"
	"dilu/internal/sched"
	"dilu/internal/sim"
)

// TrainOpts configures a training job deployment.
type TrainOpts struct {
	// Workers is the number of DDP workers (or pipeline stages for
	// pipeline-parallel models; defaults to the model's TrainStages).
	Workers int
	// TargetIters ends the job after this many iterations (JCT
	// accounting); 0 runs forever.
	TargetIters int64
	// Profile overrides Dilu profiling when non-nil.
	Profile *profiler.Profile
	// Pin places the workers on the given GPU indices (one worker per
	// index), bypassing the scheduler.
	Pin []int
	// StartAt delays job submission (the end-to-end scenario submits
	// jobs at different times).
	StartAt sim.Time
	// Elastic enables elastic serverless training (§7 future work): the
	// job grows data-parallel workers into residual capacity and retires
	// them under inference pressure.
	Elastic *ElasticOpts
}

// TrainingJob is one deployed training function.
type TrainingJob struct {
	sys     *System
	Name    string
	Spec    *model.Spec
	Profile profiler.Profile
	Job     *instance.Training

	decisions []sched.Decision
	stages    []instance.Stage
	released  bool
	SubmitAt  sim.Time
	elastic   *elasticState
}

// DeployTraining profiles, places, and starts a training job.
func (sys *System) DeployTraining(name, modelName string, opts TrainOpts) (*TrainingJob, error) {
	spec := model.ByName(modelName)
	var prof profiler.Profile
	if opts.Profile != nil {
		prof = *opts.Profile
	} else {
		prof = profiler.For(spec, profiler.RoleTraining)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = spec.TrainStages
	}
	if workers <= 0 {
		workers = 1
	}
	tj := &TrainingJob{sys: sys, Name: name, Spec: spec, Profile: prof, SubmitAt: opts.StartAt}
	start := func(sim.Time) {
		if err := tj.place(workers, opts); err != nil {
			// Deployment failures surface as a job that never starts;
			// experiments check Started().
			return
		}
		tj.Job.TargetIters = opts.TargetIters
		tj.Job.SetActive(true)
		sys.liveJobs = append(sys.liveJobs, tj)
		sys.wakeInst(tj.Job)
		if opts.Elastic != nil && tj.Spec.TrainStages <= 1 {
			// Pipeline jobs have a fixed stage count; only DDP jobs
			// scale their worker set.
			tj.enableElastic(*opts.Elastic, workers)
		}
	}
	if opts.StartAt > 0 {
		sys.Eng.Schedule(opts.StartAt, start)
	} else {
		start(0)
	}
	sys.jobs = append(sys.jobs, tj)
	return tj, nil
}

func (tj *TrainingJob) place(workers int, opts TrainOpts) error {
	sys := tj.sys
	var decs []sched.Decision
	if len(opts.Pin) > 0 {
		if len(opts.Pin) != workers {
			return fmt.Errorf("core: %s pins %d GPUs for %d workers", tj.Name, len(opts.Pin), workers)
		}
		gpus := sys.Clu.GPUs()
		for i, idx := range opts.Pin {
			if idx < 0 || idx >= len(gpus) {
				return fmt.Errorf("core: pin index %d out of range", idx)
			}
			p := &cluster.Placement{
				Instance: fmt.Sprintf("%s/w%d", tj.Name, i), Func: tj.Name,
				Req: tj.Profile.SMReq, Lim: tj.Profile.SMLim, MemMB: tj.Profile.MemMB,
			}
			if err := gpus[idx].Place(p); err != nil {
				for _, d := range decs {
					d.Release()
				}
				return err
			}
			decs = append(decs, sched.Decision{
				Instance: p.Instance, Func: tj.Name,
				GPUs: []*cluster.GPU{gpus[idx]}, Placements: []*cluster.Placement{p},
			})
		}
	} else {
		var err error
		decs, err = sys.scheduler.Schedule(sched.Request{
			Func: tj.Name, Profile: tj.Profile, Instances: workers,
		})
		if err != nil {
			return err
		}
	}
	var stages []instance.Stage
	for _, d := range decs {
		st, err := sys.attach(d, false, tj.Profile)
		if err != nil {
			for _, dd := range decs {
				dd.Release()
			}
			return err
		}
		stages = append(stages, st...)
	}
	tj.decisions = decs
	tj.stages = stages
	tj.Job = instance.NewTraining(tj.Name, tj.Name, tj.Spec, stages)
	return nil
}

// Started reports whether placement succeeded.
func (tj *TrainingJob) Started() bool { return tj.Job != nil }

// maybeFinish releases a finished job's resources exactly once.
func (tj *TrainingJob) maybeFinish(now sim.Time) {
	if tj.Job == nil || tj.released || !tj.Job.Finished() {
		return
	}
	tj.released = true
	tj.Job.SetActive(false)
	tj.releaseElastic()
	for _, d := range tj.decisions {
		tj.sys.detachStages(d, tj.stagesOf(d))
		d.Release()
	}
}

// stagesOf maps a decision's residents back to the job's stages.
func (tj *TrainingJob) stagesOf(d sched.Decision) []instance.Stage {
	var out []instance.Stage
	for _, st := range tj.stages {
		for _, g := range d.GPUs {
			if st.Res.Device() == g.Dev {
				out = append(out, st)
			}
		}
	}
	return out
}

// JCT returns the job completion time for finished jobs.
func (tj *TrainingJob) JCT() sim.Duration {
	if tj.Job == nil || !tj.Job.Finished() {
		return 0
	}
	return tj.Job.DoneAt - tj.SubmitAt
}

// Throughput returns samples/second at the given time.
func (tj *TrainingJob) Throughput(now sim.Time) float64 {
	if tj.Job == nil {
		return 0
	}
	return tj.Job.Throughput(now)
}

// ---------------------------------------------------------------------------
// Shared attach/detach wiring.

// attach creates one resident + RCKM client per stage GPU of a decision,
// entering the GPU's manager into the tick-loop active set on its first
// client.
func (sys *System) attach(d sched.Decision, sloSensitive bool, prof profiler.Profile) ([]instance.Stage, error) {
	var stages []instance.Stage
	for i, g := range d.GPUs {
		pl := d.Placements[i]
		res, err := g.Dev.Attach(pl.Instance, pl.MemMB)
		if err != nil {
			sys.detachStages(d, stages)
			return nil, err
		}
		c := &rckm.Client{
			ID: pl.Instance, Res: res, SLOSensitive: sloSensitive,
			Request: pl.Req, Limit: pl.Lim,
		}
		// Pipeline shards see 1/n of an iteration's launch cycle and work.
		n := float64(len(d.GPUs))
		c.SeedKLCWork(prof.SeedKLC/n, prof.SeedWork/n)
		m := sys.mgrByGPU[g]
		m.Register(c)
		if len(m.Clients()) == 1 {
			sys.activeMgrs = append(sys.activeMgrs, m)
		}
		stages = append(stages, instance.Stage{Res: res, Client: c})
	}
	sys.updateTickActivity()
	return stages, nil
}

// detach reverses attach for a whole decision.
func (sys *System) detach(d sched.Decision, stages []instance.Stage) {
	sys.detachStages(d, stages)
}

func (sys *System) detachStages(d sched.Decision, stages []instance.Stage) {
	for _, st := range stages {
		dev := st.Res.Device()
		for _, g := range d.GPUs {
			if g.Dev == dev {
				m := sys.mgrByGPU[g]
				m.Unregister(st.Client)
				dev.Detach(st.Res)
				if len(m.Clients()) == 0 {
					sys.removeMgr(m)
				}
			}
		}
	}
	sys.updateTickActivity()
}

// removeMgr drops a now-clientless manager from the active set, if it
// is there, preserving the order of the rest.
func (sys *System) removeMgr(m *rckm.Manager) {
	for i, mm := range sys.activeMgrs {
		if mm == m {
			sys.activeMgrs = slices.Delete(sys.activeMgrs, i, i+1)
			return
		}
	}
}

package alm

import (
	"fmt"
	"time"

	"alm/internal/engine"
	"alm/internal/faults"
)

// SharedCluster hosts several MapReduce jobs on one simulated cluster, so
// they contend for containers, disks and the network like tenants of a
// real YARN installation. Jobs are submitted with Submit and executed
// together by Run.
type SharedCluster struct {
	cs   ClusterSpec
	seed int64
	jobs []*SubmittedJob
	now  time.Duration
}

// SubmittedJob is a handle to a job running on a SharedCluster.
type SubmittedJob struct {
	spec JobSpec
	plan *faults.Plan
	job  *engine.Job // set by SharedCluster.Run
}

// Result returns the job's outcome; valid after SharedCluster.Run.
func (s *SubmittedJob) Result() Result {
	if s.job == nil {
		return Result{}
	}
	return s.job.Result()
}

// Finished reports whether the job reached a terminal state.
func (s *SubmittedJob) Finished() bool { return s.job != nil && s.job.Finished() }

// NewSharedCluster builds a cluster for multi-job runs. The zero
// ClusterSpec means the paper testbed. Seed seeds the simulation; the
// per-job JobSpec seeds only affect data generation.
func NewSharedCluster(cs ClusterSpec, seed int64) (*SharedCluster, error) {
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	return &SharedCluster{cs: cs, seed: seed}, nil
}

// Submit registers a job (and optional fault plan) for the next Run.
// Give concurrent jobs distinct JobSpec.Name values.
func (sc *SharedCluster) Submit(spec JobSpec, plan *faults.Plan) (*SubmittedJob, error) {
	spec, err := spec.Defaulted()
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	s := &SubmittedJob{spec: spec, plan: plan}
	sc.jobs = append(sc.jobs, s)
	return s, nil
}

// Run starts every submitted job and drives the simulation until all of
// them finish or maxVirtual elapses (zero means 6 hours). It returns an
// error when some job never reached a terminal state.
func (sc *SharedCluster) Run(maxVirtual time.Duration) error {
	specs := make([]JobSpec, len(sc.jobs))
	plans := make([]*faults.Plan, len(sc.jobs))
	for i, s := range sc.jobs {
		specs[i], plans[i] = s.spec, s.plan
	}
	cs := sc.cs
	cs.MaxVirtualTime = max(maxVirtual, 0)
	jobs, err := engine.RunShared(specs, plans, cs, sc.seed)
	if err != nil {
		return err
	}
	sc.now = time.Duration(jobs[0].Eng.Now())
	for i, s := range sc.jobs {
		s.job = jobs[i]
	}
	for _, s := range sc.jobs {
		if !s.job.Finished() {
			return fmt.Errorf("alm: job %q: %s", s.spec.Name, s.job.Result().FailReason)
		}
	}
	return nil
}

// Now returns the shared cluster's virtual time at the end of the last
// Run (zero before the first).
func (sc *SharedCluster) Now() time.Duration { return sc.now }

package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"alm/internal/cluster"
	"alm/internal/faults"
	"alm/internal/metrics"
	"alm/internal/sim"
	"alm/internal/topology"
)

// ErrCanceled is returned (wrapping ctx.Err()) when the context
// installed with WithContext is canceled before the job finishes. The
// event loop polls the context at event boundaries, so the run aborts
// within a bounded number of events of the cancellation.
var ErrCanceled = errors.New("engine: run canceled")

// ctxPollEvents is how many fired events may elapse between context
// polls — small enough that cancellation lands promptly, large enough
// that the per-event cost is one modulo and a nil check.
const ctxPollEvents = 256

// ClusterSpec describes the simulated testbed. The default mirrors the
// paper: 20 worker nodes (the paper's 21st node is the dedicated
// ResourceManager/NameNode, which the simulation models implicitly) with
// SSDs and 10 GbE, in two racks.
type ClusterSpec struct {
	Racks            int
	NodesPerRack     int
	HW               topology.Hardware
	Oversubscription float64
	// MaxVirtualTime aborts runs that exceed this much simulated time
	// (deadlock guard). Zero means 6 hours.
	MaxVirtualTime time.Duration
	// MaxEvents aborts runaway simulations. Zero means 50 million.
	MaxEvents uint64
}

// DefaultClusterSpec returns the paper-testbed layout.
func DefaultClusterSpec() ClusterSpec {
	return ClusterSpec{
		Racks:            2,
		NodesPerRack:     10,
		HW:               topology.DefaultHardware(),
		Oversubscription: 5,
	}
}

// RunOptions collects everything optional about a run. Zero value plus
// defaults() is a fault-free, trace-attached, unobserved run.
type RunOptions struct {
	// Plan injects faults during the run (nil = fault-free).
	Plan *faults.Plan
	// Observer streams events, progress samples and metrics deltas in
	// deterministic sim-time order while the job runs.
	Observer Observer
	// CollectMetrics attaches the final metrics snapshot to
	// Result.Metrics. Metrics are always gathered internally (the cost is
	// a few map lookups per event); this only controls exposure.
	CollectMetrics bool
	// AttachTrace keeps Result.Trace populated. Engine-level callers get
	// it by default (tests inspect traces heavily); the public facade
	// flips the default and re-enables it via alm.WithTrace.
	AttachTrace bool
	// Handles, when non-nil, is filled with the run's live control-plane
	// objects so callers can audit post-run state (the chaos harness
	// checks cluster resource-conservation invariants).
	Handles *Handles
	// Ctx, when non-nil, is polled at event-loop boundaries; once it is
	// canceled Run aborts and returns its error wrapped in ErrCanceled.
	Ctx context.Context
}

// RunOption mutates RunOptions; pass them to Run.
type RunOption func(*RunOptions)

// WithPlan injects the given fault plan.
func WithPlan(plan *faults.Plan) RunOption {
	return func(o *RunOptions) { o.Plan = plan }
}

// WithObserver streams run activity to obs.
func WithObserver(obs Observer) RunOption {
	return func(o *RunOptions) { o.Observer = obs }
}

// WithMetrics attaches the final metrics snapshot to Result.Metrics.
func WithMetrics() RunOption {
	return func(o *RunOptions) { o.CollectMetrics = true }
}

// WithTrace keeps the full trace collector on Result.Trace.
func WithTrace() RunOption {
	return func(o *RunOptions) { o.AttachTrace = true }
}

// WithoutTrace drops the trace from the Result. The facade uses it to
// invert the engine default so traces are opt-in for public callers.
func WithoutTrace() RunOption {
	return func(o *RunOptions) { o.AttachTrace = false }
}

// WithHandles fills h with the run's cluster, job and event engine.
func WithHandles(h *Handles) RunOption {
	return func(o *RunOptions) { o.Handles = h }
}

// WithContext bounds the run by ctx: the event loop polls it at event
// boundaries and Run returns ctx.Err() wrapped in ErrCanceled once it
// is canceled. A nil ctx means no bound.
func WithContext(ctx context.Context) RunOption {
	return func(o *RunOptions) { o.Ctx = ctx }
}

// Handles exposes a finished run's control-plane objects for audits.
type Handles struct {
	Cluster *cluster.Cluster
	Job     *Job
	Eng     *sim.Engine
}

// Run executes one job on a fresh simulated cluster and returns its
// result. It is the single entry point used by the facade, experiments,
// examples, the chaos harness and tests; everything optional — fault
// plans, observers, metrics exposure, post-run handles — arrives through
// functional options.
func Run(spec JobSpec, cs ClusterSpec, opts ...RunOption) (Result, error) {
	o := RunOptions{AttachTrace: true}
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	specD, err := spec.Defaulted()
	if err != nil {
		return Result{}, err
	}
	eng, jobs, err := assemble(cs, specD.Seed, []JobSpec{specD}, []*faults.Plan{o.Plan})
	if err != nil {
		return Result{}, err
	}
	job := jobs[0]
	job.SetObserver(o.Observer)
	if err := drive(eng, jobs, cs, o.Ctx); err != nil {
		return Result{}, err
	}
	res := job.Result()
	if o.CollectMetrics {
		res.Metrics = job.MetricsSnapshot()
	}
	if !o.AttachTrace {
		res.Trace = nil
	}
	if o.Handles != nil {
		*o.Handles = Handles{Cluster: job.Cluster, Job: job, Eng: eng}
	}
	return res, nil
}

// RunShared runs specs together on one fresh simulated cluster, seeded
// with seed, as tenants contending for its containers, disks and
// network, until every job finishes or cs.MaxVirtualTime elapses. Job i
// runs a clone of plans[i] (nil: fault-free). It returns the jobs with
// their Results filled as Run fills its one; a job that did not finish
// reports Failed and Finished() false.
func RunShared(specs []JobSpec, plans []*faults.Plan, cs ClusterSpec, seed int64) ([]*Job, error) {
	eng, jobs, err := assemble(cs, seed, specs, plans)
	if err != nil {
		return nil, err
	}
	if err := drive(eng, jobs, cs, nil); err != nil {
		return nil, err
	}
	return jobs, nil
}

// Validate reports an error when cs describes no buildable testbed. The
// zero ClusterSpec is the paper testbed.
func (cs ClusterSpec) Validate() error {
	_, err := cs.defaulted().topology()
	return err
}

// defaulted fills the zero fields of cs. A zero Racks selects the paper
// testbed's layout; the run bounds the caller set are kept.
func (cs ClusterSpec) defaulted() ClusterSpec {
	if cs.Racks == 0 {
		d := DefaultClusterSpec()
		d.MaxVirtualTime, d.MaxEvents = cs.MaxVirtualTime, cs.MaxEvents
		cs = d
	}
	if cs.MaxVirtualTime == 0 {
		cs.MaxVirtualTime = 6 * time.Hour
	}
	if cs.MaxEvents == 0 {
		cs.MaxEvents = 50_000_000
	}
	return cs
}

func (cs ClusterSpec) topology() (*topology.Topology, error) {
	return topology.New(topology.Options{
		Racks:            cs.Racks,
		NodesPerRack:     cs.NodesPerRack,
		HW:               cs.HW,
		Oversubscription: cs.Oversubscription,
	})
}

// assemble builds a fresh simulated cluster from cs and one job per spec
// on it, none started: the event engine is seeded with seed and capped
// at cs.MaxEvents, and the cluster's heartbeat and node expiry come from
// the first job's defaulted Conf. Job i gets its own clone of plans[i]
// (missing or nil: fault-free), because the engine consumes injection
// state (Done/Fired) as the run progresses and the caller's plan must
// stay reusable across runs.
func assemble(cs ClusterSpec, seed int64, specs []JobSpec, plans []*faults.Plan) (*sim.Engine, []*Job, error) {
	if len(specs) == 0 {
		return nil, nil, errors.New("engine: no jobs to run")
	}
	cs = cs.defaulted()
	topo, err := cs.topology()
	if err != nil {
		return nil, nil, err
	}
	first, err := specs[0].Defaulted()
	if err != nil {
		return nil, nil, err
	}
	eng := sim.NewEngine(seed)
	eng.SetMaxEvents(cs.MaxEvents)
	cl := cluster.New(eng, topo, cluster.Options{
		HeartbeatInterval: first.Conf.HeartbeatInterval,
		NodeExpiry:        first.Conf.NodeExpiry,
	})
	jobs := make([]*Job, len(specs))
	for i, spec := range specs {
		var plan *faults.Plan
		if i < len(plans) {
			plan = plans[i]
		}
		if jobs[i], err = NewJob(spec, cl, plan.Clone()); err != nil {
			return nil, nil, err
		}
	}
	// The cluster's series (alm_cluster_*, alm_net_*, alm_disk_*) count
	// the whole cluster. One job owns them outright, so its observer
	// streams them; jobs sharing the cluster each merge the one shared
	// registry into their MetricsSnapshot.
	reg := jobs[0].met.reg
	if len(jobs) > 1 {
		reg = metrics.NewRegistry()
		for _, j := range jobs {
			j.clusterMet = reg
		}
	}
	cl.SetMetrics(reg)
	return eng, jobs, nil
}

// drive starts every job, runs eng until all of them finish,
// cs.MaxVirtualTime elapses or ctx (nil: no bound) is canceled, and then
// completes each job's Result: final metrics, EventStats, and Failed for
// a job that did not finish.
func drive(eng *sim.Engine, jobs []*Job, cs ClusterSpec, ctx context.Context) error {
	cs = cs.defaulted()
	if ctx != nil {
		eng.SetInterrupt(ctxPollEvents, func() bool { return ctx.Err() != nil })
	}
	remaining := len(jobs)
	for _, j := range jobs {
		if err := j.Start(func() {
			if remaining--; remaining == 0 {
				eng.Stop()
			}
		}); err != nil {
			return err
		}
	}
	eng.Run(sim.Time(cs.MaxVirtualTime))
	if ctx != nil && ctx.Err() != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
	}
	alloc := jobs[0].Cluster.Net.System().Stats()
	for _, j := range jobs {
		j.finalizeMetrics(eng)
		j.result.Events = EventStats{
			Processed:    eng.Processed(),
			MaxQueue:     eng.MaxQueueLen(),
			Stopped:      eng.StoppedEvents(),
			AllocPasses:  alloc.Passes,
			AllocRounds:  alloc.Rounds,
			AllocFlows:   alloc.Flows,
			AllocPorts:   alloc.Ports,
			IndexUpdates: j.indexUpdates,
			HostVisits:   j.hostVisits,
		}
		if !j.finished {
			j.result.Failed = true
			j.result.FailReason = fmt.Sprintf("job did not finish within %v of virtual time", cs.MaxVirtualTime)
			j.result.Duration = cs.MaxVirtualTime
		}
	}
	return nil
}

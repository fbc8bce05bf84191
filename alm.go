// Package alm is a from-scratch Go reproduction of "Cracking Down
// MapReduce Failure Amplification through Analytics Logging and
// Migration" (Wang, Fu, Yu — IPPS 2015).
//
// It bundles a YARN-like MapReduce runtime running on a deterministic
// discrete-event cluster simulator, the stock fault-handling baseline
// whose failure amplifications the paper analyses, and the paper's ALM
// framework (ALG analytics logging + SFM speculative fast migration with
// FCM collective merging). The package is a facade: it re-exports the
// stable public surface of the internal packages so applications need a
// single import.
//
// Quick start:
//
//	spec := alm.JobSpec{
//		Workload:   alm.Wordcount(),
//		InputBytes: 10 << 30,
//		NumReduces: 1,
//		Mode:       alm.ModeALM,
//	}
//	res, err := alm.Run(spec, alm.DefaultClusterSpec())
//
// Everything optional arrives through functional options — inject the
// paper's failures, watch the run live, or collect metrics:
//
//	res, err := alm.Run(spec, alm.DefaultClusterSpec(),
//		alm.WithFaults(alm.StopNodeOfTaskAtReduceProgress(alm.ReduceTask, 0, 0.5)),
//		alm.WithMetrics(),
//		alm.WithObserver(alm.ObserverFuncs{
//			Event: func(e alm.TraceEvent) { fmt.Println(e) },
//		}))
//
// and reproduce any evaluation artifact via RunExperiment("fig8", ...).
package alm

import (
	"strings"
	"time"

	"alm/internal/core"
	"alm/internal/engine"
	"alm/internal/experiments"
	"alm/internal/faults"
	"alm/internal/metrics"
	"alm/internal/mr"
	"alm/internal/topology"
	"alm/internal/trace"
	"alm/internal/workloads"
)

// Core job types.
type (
	// JobSpec describes a MapReduce job: workload, input size, reducers,
	// configuration and fault-tolerance mode.
	JobSpec = engine.JobSpec
	// Result is a completed job's outcome: duration, output records,
	// failure accounting, counters and the event/timeline trace.
	Result = engine.Result
	// ClusterSpec describes the simulated testbed.
	ClusterSpec = engine.ClusterSpec
	// Mode selects the fault-tolerance framework.
	Mode = engine.Mode
	// Config is the job configuration (the paper's Table I parameters
	// plus stock-YARN failure-handling constants).
	Config = mr.Config
	// CostModel holds per-task processing rates.
	CostModel = mr.CostModel
	// Workload bundles a benchmark's map/reduce functions and size model.
	// Its Gen, Map, Combine, partitioner and comparators must be pure,
	// and it must not be modified after its first Run: a workload builds
	// each input split's map output once and shares it with every later
	// map attempt, of any job, with the same seed and NumReduces. It keeps the splits of the last such geometry alive
	// while it lives.
	Workload = workloads.Workload
	// Record is one key/value pair.
	Record = mr.Record
	// Hardware is a node's performance profile.
	Hardware = topology.Hardware
	// ALGOptions tunes analytics logging.
	ALGOptions = core.ALGOptions
	// SFMOptions tunes speculative fast migration.
	SFMOptions = core.SFMOptions
	// ReplicationLevel scopes ALG's HDFS replica placement.
	ReplicationLevel = mr.ReplicationLevel
	// FaultPlan is a set of fault injections for one run.
	FaultPlan = faults.Plan
	// TaskType selects map or reduce tasks in fault plans.
	TaskType = faults.TaskType
	// Trace is the per-run event log and timeline collector.
	Trace = trace.Collector
	// TraceEvent is one discrete trace event.
	TraceEvent = trace.Event
	// ExperimentTable is a reproduced figure or table.
	ExperimentTable = experiments.Table
	// ExperimentOptions scales and seeds experiment runs.
	ExperimentOptions = experiments.Options
	// ISSOptions enables related-work ISS semantics: MOFs replicated to
	// HDFS at map commit.
	ISSOptions = engine.ISSOptions
	// CheckpointOptions enables the heavyweight full-image checkpointing
	// the paper's Section III contrasts ALG against.
	CheckpointOptions = engine.CheckpointOptions
	// ShuffleOptions selects the shuffle data path; Remote pushes MOF
	// partition segments to the replicated shuffle tier so map-node loss
	// no longer invalidates delivered map output.
	ShuffleOptions = engine.ShuffleOptions
	// RunOption configures a Run call (see WithFaults, WithObserver,
	// WithMetrics, WithTrace).
	RunOption = engine.RunOption
	// Observer receives streaming callbacks — events, progress samples and
	// metrics deltas — in deterministic sim-time order during a run.
	Observer = engine.Observer
	// ObserverFuncs adapts plain functions to Observer; nil fields are
	// skipped.
	ObserverFuncs = engine.ObserverFuncs
	// ProgressSample is one point of the live job timeline.
	ProgressSample = engine.ProgressSample
	// MetricsSnapshot is an immutable, deterministically ordered metrics
	// state with Prometheus-text and JSON exporters.
	MetricsSnapshot = metrics.Snapshot
	// MetricsSeries is one named, labelled series inside a snapshot or an
	// observer delta.
	MetricsSeries = metrics.Series
	// MetricsDelta is the set of series that changed since the previous
	// observer delivery, in sorted series order.
	MetricsDelta = []metrics.Series
)

// Fault-tolerance modes.
const (
	// ModeYARN is the stock baseline (task re-execution; amplification
	// reproduces).
	ModeYARN = engine.ModeYARN
	// ModeALG adds analytics logging and log replay.
	ModeALG = engine.ModeALG
	// ModeSFM adds Algorithm 1 scheduling and FCM recovery.
	ModeSFM = engine.ModeSFM
	// ModeALM is the full framework (SFM + ALG).
	ModeALM = engine.ModeALM
)

// Task types for fault plans.
const (
	MapTask    = faults.Map
	ReduceTask = faults.Reduce
)

// Replication levels for ALG artifacts.
const (
	ReplicateNode    = mr.ReplicateNode
	ReplicateRack    = mr.ReplicateRack
	ReplicateCluster = mr.ReplicateCluster
)

// Run executes one job on a fresh simulated cluster. The base run is
// lean — no trace attached, no metrics exposed; opt in per call:
//
//	alm.Run(spec, cs,
//		alm.WithFaults(plan),   // inject failures
//		alm.WithObserver(obs),  // stream events/progress/metrics deltas
//		alm.WithMetrics(),      // expose Result.Metrics
//		alm.WithTrace())        // expose Result.Trace
func Run(spec JobSpec, cs ClusterSpec, opts ...RunOption) (Result, error) {
	all := make([]RunOption, 0, len(opts)+1)
	all = append(all, engine.WithoutTrace())
	all = append(all, opts...)
	return engine.Run(spec, cs, all...)
}

// WithFaults injects the given fault plan into the run.
func WithFaults(plan *FaultPlan) RunOption { return engine.WithPlan(plan) }

// WithObserver streams the run's events, progress samples and metrics
// deltas to obs while it executes.
func WithObserver(obs Observer) RunOption { return engine.WithObserver(obs) }

// WithMetrics attaches the final metrics snapshot to Result.Metrics.
func WithMetrics() RunOption { return engine.WithMetrics() }

// WithTrace attaches the full event/timeline trace to Result.Trace.
func WithTrace() RunOption { return engine.WithTrace() }

// DefaultClusterSpec returns the paper's 20-worker testbed (SSD, 10 GbE,
// two racks).
func DefaultClusterSpec() ClusterSpec { return engine.DefaultClusterSpec() }

// DefaultConfig returns the paper's Table I job configuration.
func DefaultConfig() Config { return mr.DefaultConfig() }

// DefaultALGOptions returns the paper's ALG settings (10 s interval,
// rack-level replication).
func DefaultALGOptions() ALGOptions { return core.DefaultALGOptions() }

// DefaultSFMOptions returns the paper's SFM settings (FCM cap 10).
func DefaultSFMOptions() SFMOptions { return core.DefaultSFMOptions() }

// Terasort returns the paper's Terasort benchmark (100-byte records,
// identity map/reduce, range-partitioned total order).
func Terasort() *Workload { return workloads.Terasort() }

// Wordcount returns the paper's Wordcount benchmark (skewed vocabulary,
// map-side combiner, tiny output).
func Wordcount() *Workload { return workloads.Wordcount() }

// Secondarysort returns the paper's Secondarysort benchmark (composite
// keys, grouping by primary key with secondary ordering).
func Secondarysort() *Workload { return workloads.Secondarysort() }

// WorkloadByName resolves "terasort", "wordcount" or "secondarysort".
func WorkloadByName(name string) (*Workload, error) { return workloads.ByName(name) }

// Fault-plan helpers mirroring the paper's injections.
func FailTaskAtProgress(typ TaskType, idx int, frac float64) *FaultPlan {
	return faults.FailTaskAtProgress(typ, idx, frac)
}

// FailTasksAtProgress fails the first n tasks of a type at the given
// per-task progress (the paper's concurrent-failure experiments).
func FailTasksAtProgress(typ TaskType, n int, frac float64) *FaultPlan {
	return faults.FailTasksAtProgress(typ, n, frac)
}

// StopNodeOfTaskAtReduceProgress stops the network of the node hosting
// the task when the job's reduce phase reaches the fraction.
func StopNodeOfTaskAtReduceProgress(typ TaskType, idx int, frac float64) *FaultPlan {
	return faults.StopNodeOfTaskAtReduceProgress(typ, idx, frac)
}

// StopMOFNodeAtJobProgress stops a node holding map output but no
// ReduceTask when overall job progress reaches the fraction (the spatial
// amplification scenario).
func StopMOFNodeAtJobProgress(frac float64) *FaultPlan {
	return faults.StopMOFNodeAtJobProgress(frac)
}

// CrashMOFNodeAtJobProgress crashes a node holding map output but no
// ReduceTask when overall job progress reaches the fraction — the
// scenario the remote shuffle tier exists to survive without map
// recomputation.
func CrashMOFNodeAtJobProgress(frac float64) *FaultPlan {
	return faults.CrashMOFNodeAtJobProgress(frac)
}

// CrashTierNodeAtTime kills the remote-shuffle service on tier ordinal
// ord at t; healAfter > 0 restarts it empty after that delay. Requires
// ShuffleOptions.Remote.
func CrashTierNodeAtTime(t time.Duration, ord int, healAfter time.Duration) *FaultPlan {
	return faults.CrashTierNodeAtTime(t, ord, healAfter)
}

// HotPartitionAtTime marks reduce partition part as shuffle-tier hot at
// t: its primary replica serves at factor of its bandwidth until
// healAfter (0 = permanent). Requires ShuffleOptions.Remote.
func HotPartitionAtTime(t time.Duration, part int, factor float64, healAfter time.Duration) *FaultPlan {
	return faults.HotPartitionAtTime(t, part, factor, healAfter)
}

// SlowNodeOfTaskAtReduceProgress degrades the disks of the node hosting
// the task to factor of their bandwidth — the paper's faulty-but-alive
// node whose local relaunches straggle.
func SlowNodeOfTaskAtReduceProgress(typ TaskType, idx int, frac, factor float64) *FaultPlan {
	return faults.SlowNodeOfTaskAtReduceProgress(typ, idx, frac, factor)
}

// PartitionNodeOfTaskAtReduceProgress transiently partitions the node
// hosting the task when the reduce phase reaches the fraction; the
// network heals after healAfter and the cluster re-admits the node.
func PartitionNodeOfTaskAtReduceProgress(typ TaskType, idx int, frac float64, healAfter time.Duration) *FaultPlan {
	return faults.PartitionNodeOfTaskAtReduceProgress(typ, idx, frac, healAfter)
}

// FlakyLinkAtTime makes the (a, b) link flaky at time t: connection
// attempts fail with probability failProb and, when 0 < bwFactor < 1,
// the pair's bandwidth drops to bwFactor of the narrower NIC. The link
// stabilises after healAfter (zero: stays flaky).
func FlakyLinkAtTime(t time.Duration, a, b int, failProb, bwFactor float64, healAfter time.Duration) *FaultPlan {
	return faults.FlakyLinkAtTime(t, a, b, failProb, bwFactor, healAfter)
}

// CrashRackAtTime crashes every node of the rack at time t (a correlated
// PDU or top-of-rack switch failure).
func CrashRackAtTime(t time.Duration, rack int) *FaultPlan {
	return faults.CrashRackAtTime(t, rack)
}

// RunExperiment reproduces one paper artifact by ID (fig1, fig2, fig3,
// fig4, fig8, fig9, fig10, table2, fig11, fig12, fig13, fig14, fig15, or
// ablations).
func RunExperiment(id string, opt ExperimentOptions) (*ExperimentTable, error) {
	e, ok := experiments.Lookup(id)
	if !ok {
		return nil, errUnknownExperiment(id)
	}
	return e.Run(opt)
}

// ExperimentIDs lists the reproducible artifacts in paper order.
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentDescription returns the one-line description for an ID (""
// when unknown; both go through the registry's shared index).
func ExperimentDescription(id string) string { return experiments.Describe(id) }

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "alm: unknown experiment " + string(e) +
		" (valid: " + strings.Join(experiments.IDs(), ", ") + ")"
}

// Package engine is the MapReduce runtime: an AppMaster scheduling Map-
// and ReduceTask attempts in YARN containers over the simulated cluster,
// with the stock re-execution/fetch-failure fault handling (which
// reproduces the paper's failure amplifications) and, when enabled, the
// ALM framework from internal/core (ALG logging, SFM scheduling, FCM
// recovery).
package engine

import (
	"fmt"
	"strconv"
	"time"

	"alm/internal/cluster"
	"alm/internal/core"
	"alm/internal/dfs"
	"alm/internal/faults"
	"alm/internal/merge"
	"alm/internal/metrics"
	"alm/internal/mr"
	"alm/internal/shuffletier"
	"alm/internal/sim"
	"alm/internal/topology"
	"alm/internal/trace"
	"alm/internal/workloads"
)

// Mode selects the fault-tolerance framework for a run.
type Mode int

// Engine modes.
const (
	// ModeYARN is the stock baseline: task re-execution from scratch,
	// fetch-failure-driven map regeneration, reducer self-kill on fetch
	// stalls.
	ModeYARN Mode = iota
	// ModeALG adds analytics logging + log replay on retry.
	ModeALG
	// ModeSFM adds Algorithm 1 scheduling and FCM recovery (no logging).
	ModeSFM
	// ModeALM is the full framework (SFM + ALG).
	ModeALM
)

func (m Mode) String() string {
	switch m {
	case ModeYARN:
		return "yarn"
	case ModeALG:
		return "alg"
	case ModeSFM:
		return "sfm"
	case ModeALM:
		return "alm"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ALGEnabled reports whether the mode performs analytics logging.
func (m Mode) ALGEnabled() bool { return m == ModeALG || m == ModeALM }

// SFMEnabled reports whether the mode uses Algorithm 1 + FCM.
func (m Mode) SFMEnabled() bool { return m == ModeSFM || m == ModeALM }

// JobSpec describes one MapReduce job.
type JobSpec struct {
	Name       string
	Workload   *workloads.Workload
	InputBytes int64
	NumReduces int
	Conf       mr.Config
	Mode       Mode
	// Policy selects the recovery policy by registry name (see
	// PolicyNames: "yarn", "alg", "sfm", "alm", "binocular", "atlas").
	// Empty selects the policy matching Mode. The four legacy names pin
	// Mode to their data plane; related-work policies (binocular, atlas)
	// ride on whatever Mode the spec sets.
	Policy string
	// DecisionTrace additionally emits every policy decision as a
	// policy-decision trace event. Decisions are always collected in
	// Result.Decisions; the trace emission is opt-in so legacy traces
	// stay byte-identical.
	DecisionTrace bool
	ALG           core.ALGOptions
	SFM           core.SFMOptions
	Seed          int64

	// ISS enables Intermediate Storage System semantics (Ko et al.,
	// SoCC'10 — the paper's related work): every MOF is additionally
	// replicated to HDFS at map commit, so reducers can fetch lost
	// partitions from replicas instead of waiting for regeneration. It
	// composes with any Mode (the paper discusses ISS over stock YARN).
	ISS ISSOptions
	// Shuffle selects the shuffle data plane: the stock map-node-serving
	// path, or the push-based remote shuffle tier (internal/shuffletier).
	// Mutually exclusive with ISS (both relocate MOF durability).
	Shuffle ShuffleOptions
	// Checkpoint enables the heavyweight system-level checkpointing the
	// paper's Section III contrasts ALG against: periodic synchronous
	// snapshots of the task's entire memory image to HDFS.
	Checkpoint CheckpointOptions
}

// ShuffleOptions selects and sizes the remote shuffle tier.
type ShuffleOptions struct {
	// Remote routes map output through the replicated shuffle tier:
	// maps push partition segments to tier nodes at commit and reducers
	// fetch from the tier, so losing a map node after commit invalidates
	// nothing.
	Remote bool
	// TierNodes, MaxInflight and MaxQueue size the tier (zero:
	// shuffletier defaults — 3 nodes, 4 ingest slots, queue-depth-8
	// backpressure). Replication and the hot-spot factor keep the
	// shuffletier defaults (2 replicas, 3×).
	TierNodes   int
	MaxInflight int
	MaxQueue    int
}

// ISSOptions configures intermediate-data replication. An enabled ISS
// writes issCopies HDFS copies of each MOF besides the local one.
type ISSOptions struct {
	Enabled bool
}

const issCopies = 1

// CheckpointOptions configures heavyweight checkpoint/restart.
type CheckpointOptions struct {
	Enabled bool
	// Interval between snapshots. Zero means 30s when enabled. Each
	// snapshot is the full reduce heap (ReduceMemoryMB), the paper's
	// "tasks with several GBs of heap memory" case.
	Interval time.Duration
}

// Defaulted fills zero fields with defaults and validates.
func (s JobSpec) Defaulted() (JobSpec, error) {
	if s.Workload == nil {
		return s, fmt.Errorf("engine: JobSpec needs a workload")
	}
	if s.Name == "" {
		s.Name = s.Workload.Name
	}
	if s.InputBytes <= 0 {
		return s, fmt.Errorf("engine: JobSpec needs positive InputBytes")
	}
	if s.NumReduces <= 0 {
		s.NumReduces = 1
	}
	if s.Conf.BlockSizeBytes == 0 {
		s.Conf = mr.DefaultConfig()
	}
	if s.ALG.Interval == 0 {
		s.ALG = core.DefaultALGOptions()
	}
	if s.SFM.FCMCap == 0 {
		s.SFM = core.DefaultSFMOptions()
	}
	if s.Shuffle.Remote && s.ISS.Enabled {
		return s, fmt.Errorf("engine: ISS and Shuffle.Remote are mutually exclusive")
	}
	if s.Checkpoint.Enabled && s.Checkpoint.Interval <= 0 {
		s.Checkpoint.Interval = 30 * time.Second
	}
	if s.Policy == "" {
		s.Policy = s.Mode.String()
	}
	f, ok := policyRegistry[s.Policy]
	if !ok {
		return s, fmt.Errorf("engine: unknown recovery policy %q (known: %v)", s.Policy, PolicyNames())
	}
	if f.mode >= 0 {
		s.Mode = f.mode
	}
	if err := s.Conf.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// Result is the outcome of a job run.
type Result struct {
	Completed  bool
	Failed     bool
	FailReason string
	// Duration is job submission to completion in virtual time.
	Duration time.Duration
	// MapPhaseDone is when the last map first completed.
	MapPhaseDone time.Duration
	// Output is the concatenated real reduce output, in partition order.
	Output             []mr.Record
	OutputLogicalBytes int64

	// Failure accounting.
	MapAttemptFailures    int
	ReduceAttemptFailures int
	// AdditionalReduceFailures counts reduce attempts that died of fetch
	// starvation or progress timeout while their own node was healthy —
	// the paper's "infected healthy ReduceTasks" (Table II).
	AdditionalReduceFailures int
	// FetchRetries counts failed fetch sessions (connect timeouts against
	// unreachable hosts, flaky-link connection failures) that the reducer
	// backed off and retried — what a healing partition or gray link costs
	// in Fig. 10-style timelines.
	FetchRetries int
	// WaitAdvisories counts SFM wait advisories issued to reducers (each
	// one suppresses a self-kill while a lost map regenerates).
	WaitAdvisories int

	// Decisions is the recovery policy's decision trace: every recorded
	// choice with its scored alternatives and counterfactual regret, in
	// simulation order (policy.go).
	Decisions []PolicyDecision

	Counters mr.Counters
	Trace    *trace.Collector
	// Metrics is the final metrics snapshot; attached only when the run
	// was started with WithMetrics (use Job.MetricsSnapshot otherwise).
	Metrics *metrics.Snapshot

	// Events reports discrete-event engine load for the run (filled by
	// Run and RunShared, zero when a Job is driven on a caller-owned
	// engine).
	Events EventStats
}

// EventStats summarises how hard the run worked the event engine. The
// engine and the allocator are the cluster's, so every job of a shared
// run (RunShared) reports the same totals; only IndexUpdates and
// HostVisits are the job's own.
type EventStats struct {
	// Processed is the number of events fired.
	Processed uint64
	// MaxQueue is the event-heap high-water mark — the metric the heap
	// microbenchmarks watch for dead-timer bloat.
	MaxQueue int
	// Stopped counts events removed from the heap by Timer.Stop before
	// their deadline.
	Stopped uint64
	// AllocPasses, AllocRounds, AllocFlows and AllocPorts are the
	// fair-share allocator's work (fairshare.Stats): max-min allocations
	// run, and bottleneck ports frozen, flows allocated and ports keyed
	// into the bottleneck heap across them. The allocator runs about
	// once per simulated instant that changes flows, not once per event
	// or per change (fairshare.Stats.Passes has the exact rule), and a
	// pass allocates only the components that hold a port changed since
	// the previous one.
	AllocPasses uint64
	AllocRounds uint64
	AllocFlows  uint64
	AllocPorts  uint64
	// IndexUpdates and HostVisits are the reducers' fetch-index work,
	// summed over every reducer: serving-host re-resolutions of one map
	// (reindexMap calls), and host lists pickHost scanned for a
	// candidate map (non-empty lists without an open session).
	IndexUpdates uint64
	HostVisits   uint64
}

// localNode is a worker node's local state outside YARN's view: the local
// filesystem holding spilled segments, MOFs and ALG logs. StopNetwork
// keeps it intact (but unreachable); Crash destroys it. Every table is
// allocated on its first write, so the nodes that hold no reducer data
// (most of a large cluster, and every node of a job without ALG logs)
// cost one empty struct; reads treat a nil table as empty.
type localNode struct {
	segments map[string]*merge.Segment
	// segMaps records which map outputs each spilled segment contains —
	// node-local metadata a restored attempt reads alongside the segment
	// (so an ALG log never claims data that only lived in lost memory).
	segMaps map[string][]int
	// algLogs holds the latest local log record per reduce task, indexed
	// densely by task idx (nil = no log).
	algLogs []*core.LogRecord
}

// putSegment records a spilled segment at path and the maps it holds.
func (l *localNode) putSegment(path string, seg *merge.Segment, maps []int) {
	if l.segments == nil {
		l.segments = make(map[string]*merge.Segment)
		l.segMaps = make(map[string][]int)
	}
	l.segments[path] = seg
	l.segMaps[path] = maps
}

// algLog returns reduce task idx's latest local log record, or nil.
func (l *localNode) algLog(idx int) *core.LogRecord {
	if idx >= len(l.algLogs) {
		return nil
	}
	return l.algLogs[idx]
}

// putALGLog stores reduce task idx's latest local log record; tasks is
// the job's reduce count.
func (l *localNode) putALGLog(idx, tasks int, rec *core.LogRecord) {
	if l.algLogs == nil {
		l.algLogs = make([]*core.LogRecord, tasks)
	}
	l.algLogs[idx] = rec
}

// Job is one running MapReduce job.
type Job struct {
	Spec    JobSpec
	Eng     *sim.Engine
	Cluster *cluster.Cluster
	Tracer  *trace.Collector

	am       *appMaster
	locals   []*localNode
	plan     *faults.Plan
	result   Result
	finished bool
	startAt  sim.Time
	met      *jobMetrics
	// clusterMet holds the cluster-wide series when the job shares its
	// cluster with others (RunShared); nil when they are in met's
	// registry, as on a one-job run.
	clusterMet *metrics.Registry
	obs        Observer
	// tier is the remote shuffle service; nil unless Spec.Shuffle.Remote.
	tier *shuffletier.Tier
	// hostSlots numbers the nodes that serve maps for every reducer's
	// host index (hostindex.go).
	hostSlots *hostSlots
	// indexUpdates and hostVisits count the reducers' fetch-index work
	// (EventStats.IndexUpdates and HostVisits).
	indexUpdates uint64
	hostVisits   uint64

	// algCommits is the latest reduce-stage ALG snapshot committed to
	// HDFS per reduce task. Like checkpoints below it is a dense slice
	// indexed by reduce task idx; the zero entry is "no commit yet".
	algCommits []algCommit
	// checkpoints is the newest committed heavyweight snapshot per reduce
	// task (checkpoint.go).
	checkpoints []*ckptImage

	onFinish func()
}

// algCommit is one reduce-stage snapshot committed to HDFS: the log
// record and the real records of the output flushed as of it (the data
// behind the HDFS flush files, which the DFS models only as bytes).
// records are the rec.FlushedOutputRecords output records reduced from
// the first rec.ProcessedRealRecords input records; neither the record
// nor the slice changes after the commit.
type algCommit struct {
	rec     *core.LogRecord
	records []mr.Record
}

// flushedLogical is the committed output watermark in logical bytes, 0
// for the zero commit.
func (c algCommit) flushedLogical() int64 {
	if c.rec == nil {
		return 0
	}
	return c.rec.FlushedOutputLogical
}

// reduceWriteOptions places a reduce attempt's HDFS writes. ALG modes
// write the output stream, log records and flushes with ALG's scope and
// replica count (paper Fig. 13); the others write the output as plain
// HDFS does.
func (j *Job) reduceWriteOptions() dfs.WriteOptions {
	if j.Spec.Mode.ALGEnabled() {
		return dfs.WriteOptions{Replication: core.ALGReplicas, Scope: j.Spec.ALG.Replication}
	}
	return dfs.WriteOptions{Replication: j.Spec.Conf.DFSReplication, Scope: mr.ReplicateCluster}
}

// NewJob builds a job over an existing cluster. The cluster must have at
// least one usable node; assemble attaches the cluster's metrics. A
// structurally malformed fault plan (fractions outside [0,1], negative
// times or indices, ...) is rejected here rather than silently never
// firing.
func NewJob(spec JobSpec, cl *cluster.Cluster, plan *faults.Plan) (*Job, error) {
	spec, err := spec.Defaulted()
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	j := &Job{
		Spec:        spec,
		Eng:         cl.Eng,
		Cluster:     cl,
		Tracer:      trace.New(),
		plan:        plan,
		algCommits:  make([]algCommit, spec.NumReduces),
		checkpoints: make([]*ckptImage, spec.NumReduces),
		hostSlots:   newHostSlots(cl.Topo.NumNodes()),
	}
	for range cl.Topo.Nodes() {
		j.locals = append(j.locals, &localNode{})
	}
	j.result.Counters = mr.Counters{}
	j.result.Trace = j.Tracer
	j.met = newJobMetrics()
	j.Tracer.OnEmit = j.observeEvent
	if spec.Shuffle.Remote {
		j.tier = shuffletier.New(cl, j.Tracer, spec.NumReduces, shuffletier.Options{
			TierNodes:   spec.Shuffle.TierNodes,
			MaxInflight: spec.Shuffle.MaxInflight,
			MaxQueue:    spec.Shuffle.MaxQueue,
		})
		j.tier.SetMetrics(j.met.reg)
		j.tier.OnChange = func(m int, parts []int) {
			if !j.finished && j.am != nil {
				j.am.tierChanged(m, parts)
			}
		}
		j.tier.OnBackpressure = func(ord, depth int) {
			if !j.finished {
				j.result.WaitAdvisories++
			}
		}
		j.tier.OnRerunNeeded = func(mapIdx int) {
			if !j.finished && j.am != nil {
				j.am.tierRerunNeeded(mapIdx)
			}
		}
	}
	return j, nil
}

// Tier exposes the remote shuffle service (nil unless Shuffle.Remote) —
// the chaos harness asserts its recovery obligations drained.
func (j *Job) Tier() *shuffletier.Tier { return j.tier }

// Start submits the job: loads the input into DFS and boots the
// AppMaster. The caller then drives the simulation engine.
func (j *Job) Start(onFinish func()) error {
	j.onFinish = onFinish
	j.startAt = j.Eng.Now()
	inputName := "input/" + j.Spec.Name
	if !j.Cluster.DFS.Exists(inputName) {
		if _, err := j.Cluster.DFS.AddFile(inputName, j.Spec.InputBytes, j.Spec.Conf.BlockSizeBytes, j.Spec.Conf.DFSReplication); err != nil {
			return err
		}
	}
	if err := j.validatePlanTargets(); err != nil {
		return err
	}
	j.am = newAppMaster(j, inputName)
	j.am.start()
	j.scheduleTimedInjections()
	j.Eng.Post(2*time.Second, j.sampleTick)
	return nil
}

// validatePlanTargets checks the plan references that only the cluster
// can bound: explicit node and rack indices. (Task indices above the
// job's split count stay legal — scaled experiment plans deliberately
// over-request task kills, and the surplus triggers never fire.)
func (j *Job) validatePlanTargets() error {
	if j.plan == nil {
		return nil
	}
	nodes, racks := j.Cluster.Topo.NumNodes(), j.Cluster.Topo.NumRacks()
	for i, inj := range j.plan.Injections {
		a := inj.Do
		if a.Kind == faults.CrashRack && a.Rack >= racks {
			return fmt.Errorf("engine: injection %d targets rack %d of %d", i, a.Rack, racks)
		}
		if a.Kind == faults.FlakyLink && (a.Node >= nodes || a.Node2 >= nodes) {
			return fmt.Errorf("engine: injection %d targets link (%d,%d) of %d nodes", i, a.Node, a.Node2, nodes)
		}
		if a.Kind == faults.CrashTierNode || a.Kind == faults.HotPartition {
			if j.tier == nil {
				return fmt.Errorf("engine: injection %d is a shuffle-tier fault but the job does not use Shuffle.Remote", i)
			}
			if a.Kind == faults.CrashTierNode && a.Node >= j.tier.Size() {
				return fmt.Errorf("engine: injection %d targets tier ordinal %d of %d", i, a.Node, j.tier.Size())
			}
			if a.Kind == faults.HotPartition && a.TaskIdx >= j.Spec.NumReduces {
				return fmt.Errorf("engine: injection %d targets partition %d of %d", i, a.TaskIdx, j.Spec.NumReduces)
			}
			continue
		}
		if a.Selector == faults.NodeExplicit && a.Kind != faults.FailTask && a.Kind != faults.CrashRack && a.Node >= nodes {
			return fmt.Errorf("engine: injection %d targets node %d of %d", i, a.Node, nodes)
		}
	}
	return nil
}

// Result returns the job outcome; valid once the run has finished.
func (j *Job) Result() Result { return j.result }

// Finished reports whether the job reached a terminal state.
func (j *Job) Finished() bool { return j.finished }

// local returns a node's local state.
func (j *Job) local(id topology.NodeID) *localNode { return j.locals[id] }

// crashWipe destroys a node's local data (CrashNode action).
func (j *Job) crashWipe(id topology.NodeID) {
	j.locals[id] = &localNode{}
}

func (j *Job) finish(failed bool, reason string) {
	if j.finished {
		return
	}
	j.finished = true
	j.result.Failed = failed
	j.result.Completed = !failed
	j.result.FailReason = reason
	j.result.Duration = time.Duration(j.Eng.Now() - j.startAt)
	if failed {
		j.Tracer.Emit(j.Eng.Now(), trace.KindJobFailed, "", "", reason)
	} else {
		j.Tracer.Emit(j.Eng.Now(), trace.KindJobFinished, "", "", "")
		j.assembleOutput()
	}
	if j.tier != nil {
		j.result.Counters.Add("tier.push.bytes", j.tier.PushBytes())
		j.result.Counters.Add("tier.replication.bytes", j.tier.ReplicationBytes())
		j.result.Counters.Add("tier.repush.bytes", j.tier.RepushBytes())
		j.tier.Close()
	}
	j.observeSample(j.Eng.Now())
	if j.onFinish != nil {
		j.onFinish()
	}
}

// assembleOutput concatenates per-reduce outputs (the winner's restored
// ALG-flushed prefix, if any, plus its computed suffix) in partition
// order, into one slice sized for the total.
func (j *Job) assembleOutput() {
	n := 0
	for _, t := range j.am.reduces {
		if t.winner != nil {
			n += len(t.winner.restored.records) + len(t.winner.output)
		}
	}
	if n > 0 {
		j.result.Output = make([]mr.Record, 0, n)
	}
	for idx := 0; idx < j.Spec.NumReduces; idx++ {
		t := j.am.reduces[idx]
		if t.winner == nil {
			continue
		}
		j.result.Output = append(j.result.Output, t.winner.restored.records...)
		j.result.OutputLogicalBytes += t.winner.restored.flushedLogical()
		j.result.Output = append(j.result.Output, t.winner.output...)
		j.result.OutputLogicalBytes += t.winner.outputLogical
	}
}

// ---- progress metrics & fault triggers ----

// mapPhaseFraction is completed maps / total maps.
func (j *Job) mapPhaseFraction() float64 {
	if len(j.am.maps) == 0 {
		return 1
	}
	return float64(j.am.completedMaps) / float64(len(j.am.maps))
}

// reducePhaseFraction is the mean best-attempt progress across reduces.
func (j *Job) reducePhaseFraction() float64 {
	if len(j.am.reduces) == 0 {
		return 1
	}
	var sum float64
	for _, t := range j.am.reduces {
		sum += t.bestProgress()
	}
	return sum / float64(len(j.am.reduces))
}

func (j *Job) jobProgress() float64 {
	return (j.mapPhaseFraction() + j.reducePhaseFraction()) / 2
}

// sampleTick records the timeline series the paper's figures profile.
func (j *Job) sampleTick() {
	if j.finished {
		return
	}
	now := j.Eng.Now()
	j.Tracer.Sample("reduce-progress", now, j.reducePhaseFraction())
	j.Tracer.Sample("map-progress", now, j.mapPhaseFraction())
	j.Tracer.Sample("failed-reduce-attempts", now, float64(j.result.ReduceAttemptFailures))
	j.Tracer.Sample("fetch-retries", now, float64(j.result.FetchRetries))
	j.observeSample(now)
	j.checkInjections()
	j.Eng.Post(2*time.Second, j.sampleTick)
}

func (j *Job) scheduleTimedInjections() {
	if j.plan == nil {
		return
	}
	for _, inj := range j.plan.Injections {
		if inj.When.Kind == faults.AtTime {
			inj := inj
			j.Eng.Post(sim.Time(inj.When.Time), func() { j.fire(inj) })
		}
	}
}

// checkInjections evaluates progress-based triggers; called from progress
// updates and the sampling tick.
func (j *Job) checkInjections() {
	if j.plan == nil || j.finished {
		return
	}
	for _, inj := range j.plan.Injections {
		if inj.Done {
			continue
		}
		switch inj.When.Kind {
		case faults.AtReducePhaseProgress:
			if j.reducePhaseFraction() >= inj.When.Fraction {
				j.fire(inj)
			}
		case faults.AtJobProgress:
			if j.jobProgress() >= inj.When.Fraction {
				j.fire(inj)
			}
		case faults.AtTaskProgress:
			if t := j.am.task(inj.When.Task, inj.When.TaskIdx); t != nil {
				if a := t.runningAttempt(); a != nil && a.progress >= inj.When.Fraction {
					j.fire(inj)
				}
			}
		}
	}
}

// fire applies one injection, re-arming recurring AtTime triggers until
// their firing budget runs out.
func (j *Job) fire(inj *faults.Injection) {
	if inj.Done || j.finished {
		return
	}
	inj.Fired++
	if inj.When.Kind == faults.AtTime && inj.Every > 0 && inj.Fired < inj.MaxFirings() {
		j.Eng.Post(sim.Time(inj.Every), func() { j.fire(inj) })
	} else {
		inj.Done = true
	}
	j.apply(inj.Do)
}

// apply executes one fault action against the cluster.
func (j *Job) apply(do faults.Action) {
	now := j.Eng.Now()
	switch do.Kind {
	case faults.FailTask:
		if t := j.am.task(do.Task, do.TaskIdx); t != nil {
			if a := t.runningAttempt(); a != nil {
				j.am.attemptFailed(a, "injected out-of-memory error")
			}
		}
	case faults.StopNodeNetwork, faults.PartitionNode, faults.CrashNode:
		node := j.selectNode(do)
		if node == topology.Invalid {
			return
		}
		j.Tracer.Emit(now, trace.KindNodeCrashed, "", j.Cluster.Topo.Node(node).Name,
			fmt.Sprintf("injected %v", do.Kind))
		if do.Kind == faults.CrashNode {
			j.Cluster.Crash(node)
			j.crashWipe(node)
			if j.tier != nil {
				j.tier.NodeCrashed(node)
			}
		} else {
			j.Cluster.StopNetwork(node)
			if do.HealAfter > 0 {
				j.Eng.Post(sim.Time(do.HealAfter), func() { j.healNode(node) })
			}
		}
	case faults.HealNode:
		node := j.selectNode(do)
		if node == topology.Invalid {
			return
		}
		j.healNode(node)
	case faults.CrashRack:
		for _, node := range j.Cluster.Topo.RackNodes(do.Rack) {
			if !j.Cluster.NodeAlive(node) {
				continue
			}
			j.Tracer.Emit(now, trace.KindNodeCrashed, "", j.Cluster.Topo.Node(node).Name,
				fmt.Sprintf("injected rack %d crash", do.Rack))
			j.Cluster.Crash(node)
			j.crashWipe(node)
			if j.tier != nil {
				j.tier.NodeCrashed(node)
			}
		}
	case faults.SlowNode:
		node := j.selectNode(do)
		if node == topology.Invalid {
			return
		}
		j.Tracer.Emit(now, trace.KindNodeCrashed, "", j.Cluster.Topo.Node(node).Name,
			fmt.Sprintf("injected slow disks x%.2f", do.Factor))
		j.Cluster.SlowDisks(node, do.Factor)
		if do.HealAfter > 0 {
			j.Eng.Post(sim.Time(do.HealAfter), func() {
				if j.finished {
					return
				}
				j.Tracer.Emit(j.Eng.Now(), trace.KindNodeHealed, "", j.Cluster.Topo.Node(node).Name, "disks healed")
				j.Cluster.RestoreDisks(node)
			})
		}
	case faults.DegradeNIC:
		node := j.selectNode(do)
		if node == topology.Invalid {
			return
		}
		j.Tracer.Emit(now, trace.KindLinkFlaky, "", j.Cluster.Topo.Node(node).Name,
			fmt.Sprintf("injected NIC degrade x%.2f", do.Factor))
		j.Cluster.Net.SetNICFactor(node, do.Factor)
		if do.HealAfter > 0 {
			j.Eng.Post(sim.Time(do.HealAfter), func() {
				if j.finished {
					return
				}
				j.Tracer.Emit(j.Eng.Now(), trace.KindLinkHealed, "", j.Cluster.Topo.Node(node).Name, "nic healed")
				j.Cluster.Net.SetNICFactor(node, 1)
			})
		}
	case faults.FlakyLink:
		a, b := topology.NodeID(do.Node), topology.NodeID(do.Node2)
		j.Tracer.Emit(now, trace.KindLinkFlaky, "", j.Cluster.Topo.Node(a).Name,
			fmt.Sprintf("link to %s flaky p=%.2f bw=x%.2f", j.Cluster.Topo.Node(b).Name, do.FailProb, do.Factor))
		j.Cluster.Net.SetLinkFlaky(a, b, do.FailProb, do.Factor)
		if do.HealAfter > 0 {
			j.Eng.Post(sim.Time(do.HealAfter), func() {
				if j.finished {
					return
				}
				j.Tracer.Emit(j.Eng.Now(), trace.KindLinkHealed, "", j.Cluster.Topo.Node(a).Name,
					fmt.Sprintf("link to %s healed", j.Cluster.Topo.Node(b).Name))
				j.Cluster.Net.HealLink(a, b)
			})
		}
	case faults.CrashTierNode:
		if j.tier == nil {
			return
		}
		ord := do.Node
		j.tier.CrashOrdinal(ord)
		if do.HealAfter > 0 {
			j.Eng.Post(sim.Time(do.HealAfter), func() {
				if !j.finished {
					j.tier.RestoreOrdinal(ord)
				}
			})
		}
	case faults.HotPartition:
		if j.tier == nil {
			return
		}
		part := do.TaskIdx
		primary := j.tier.PrimaryNode(part)
		j.tier.MarkHotPartition(part, true)
		j.Cluster.SlowDisks(primary, do.Factor)
		if do.HealAfter > 0 {
			j.Eng.Post(sim.Time(do.HealAfter), func() {
				if j.finished {
					return
				}
				j.Cluster.RestoreDisks(primary)
				j.tier.MarkHotPartition(part, false)
			})
		}
	}
}

// healNode re-admits a partitioned node: the network heals, heartbeats
// resume, and the cluster serves queued requests from its capacity. A
// node whose process died in the meantime stays dead — healing a network
// cannot resurrect a crashed process.
func (j *Job) healNode(node topology.NodeID) {
	if j.finished || !j.Cluster.NodeAlive(node) || j.Cluster.NodeReachable(node) {
		return
	}
	j.Tracer.Emit(j.Eng.Now(), trace.KindNodeHealed, "", j.Cluster.Topo.Node(node).Name, "network healed")
	j.Cluster.Restore(node)
}

func (j *Job) selectNode(a faults.Action) topology.NodeID {
	switch a.Selector {
	case faults.NodeExplicit:
		return topology.NodeID(a.Node)
	case faults.NodeOfTask:
		if t := j.am.task(a.Task, a.TaskIdx); t != nil {
			if at := t.runningAttempt(); at != nil {
				return at.node
			}
		}
		return topology.Invalid
	case faults.NodeWithMOFsOnly:
		return j.am.nodeWithMOFsButNoReduce()
	}
	return topology.Invalid
}

// ---- helpers shared by the task code ----

// attemptID renders the Hadoop-style attempt name ("r_004_1"), byte-for-
// byte the string fmt.Sprintf("%s_%03d_%d", ...) produced, without fmt's
// overhead: trace comparisons and several tie-breaks key on these names.
func attemptID(typ faults.TaskType, taskIdx, attemptNo int) string {
	var buf [24]byte
	c := byte('m')
	if typ == faults.Reduce {
		c = 'r'
	}
	b := append(buf[:0], c, '_')
	b = appendPad3(b, taskIdx)
	b = append(b, '_')
	b = strconv.AppendInt(b, int64(attemptNo), 10)
	return string(b)
}

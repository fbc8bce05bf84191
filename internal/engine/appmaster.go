package engine

import (
	"fmt"
	"math"

	"alm/internal/cluster"
	"alm/internal/dfs"
	"alm/internal/faults"
	"alm/internal/merge"
	"alm/internal/mr"
	"alm/internal/sim"
	"alm/internal/topology"
	"alm/internal/trace"
)

// attemptState tracks an attempt through its lifecycle.
type attemptState int

const (
	attemptPending attemptState = iota // waiting for a container
	attemptRunning
	attemptSucceeded
	attemptFailed
	attemptKilled
)

// executor is the running body of an attempt (map, reduce or FCM reduce).
type executor interface {
	// start launches the attempt: container localization, then its work.
	start()
	// kill tears the execution down (attemptRun.stop). The AM has
	// already accounted the attempt's fate.
	kill()
}

// attempt is one execution attempt of a task.
type attempt struct {
	typ       faults.TaskType
	taskIdx   int
	attemptNo int
	id        string
	node      topology.NodeID
	container *cluster.Container
	fcm       bool
	// localResume marks an SFM local relaunch that may use local logs.
	localResume bool
	// highPrio propagates SFM's map-regeneration priority.
	highPrio bool
	prefer   []topology.NodeID
	avoid    topology.NodeID

	state        attemptState
	progress     float64
	lastProgress sim.Time
	exec         executor
	cancelReq    func()
	// launchedAt/launched replace the AM's old launchTimes map: a field
	// read per attempt instead of a pointer-keyed map at thousand-task
	// scale. launchedAt is zeroed on retirement so AttemptInfo reports
	// the same zero value the map lookup used to.
	launchedAt sim.Time
	launched   bool

	// Reduce results, filled by the executor on success. restored is
	// the committed ALG snapshot this attempt resumed from (zero if
	// none): its flushed records were already durable on HDFS when the
	// attempt started. output is what the attempt computed after them.
	output        []mr.Record
	outputLogical int64
	restored      algCommit
}

func (a *attempt) nodeName(j *Job) string {
	if a.state == attemptPending || a.node == topology.Invalid {
		return "-"
	}
	return j.Cluster.Topo.Node(a.node).Name
}

// taskState is the AM's view of one task.
type taskState struct {
	typ      faults.TaskType
	idx      int
	attempts []*attempt
	failures int
	done     bool
	winner   *attempt
	// rerunInFlight marks a map being regenerated after its MOF was lost.
	rerunInFlight bool
	// split metadata for maps.
	block *dfs.Block
}

func (t *taskState) runningAttempt() *attempt {
	for _, a := range t.attempts {
		if a.state == attemptRunning {
			return a
		}
	}
	return nil
}

func (t *taskState) liveAttempts() int {
	n := 0
	for _, a := range t.attempts {
		if a.state == attemptRunning || a.state == attemptPending {
			n++
		}
	}
	return n
}

func (t *taskState) bestProgress() float64 {
	if t.done {
		return 1
	}
	best := 0.0
	for _, a := range t.attempts {
		if a.state == attemptRunning && a.progress > best {
			best = a.progress
		}
	}
	return best
}

// mofEntry is the AM's registry entry for a map's output file.
type mofEntry struct {
	node  topology.NodeID
	parts []*merge.Segment
	gen   int
	// issReplicas are HDFS replica locations when ISS is enabled.
	issReplicas []topology.NodeID
}

// appMaster is the per-job MRAppMaster. Every recovery, speculation and
// placement decision is delegated to the job's RecoveryPolicy; the AM
// owns the mechanics (attempt lifecycle, container requests, accounting)
// and implements PolicyContext (policy_context.go) as the policy's
// window into them.
type appMaster struct {
	job  *Job
	conf mr.Config

	policy RecoveryPolicy

	maps    []*taskState
	reduces []*taskState
	mofs    []*mofEntry

	completedMaps   int
	reducesLaunched bool

	// rerunScheduled is dense by map index (sized with am.maps).
	rerunScheduled []bool

	// nodeFailures / lastNodeFailure record attempt-failure history per
	// node (task faults and node loss alike) — the signal behind
	// failure-aware placement policies (atlas).
	nodeFailures    []int
	lastNodeFailure []sim.Time

	// reduceExecs holds running reduce executors in registration order
	// (a slice, not a map, so MOF-availability notifications are
	// deterministic).
	reduceExecs []mapAvailListener
	fcmRunning  int

	// Straggler-speculation bookkeeping (speculation.go) lives on the
	// attempts themselves (launchedAt/launched).
	speculativeLaunched int

	jobDone bool
}

func newAppMaster(j *Job, inputName string) *appMaster {
	am := &appMaster{
		job:             j,
		conf:            j.Spec.Conf,
		policy:          buildPolicy(j.Spec),
		nodeFailures:    make([]int, j.Cluster.Topo.NumNodes()),
		lastNodeFailure: make([]sim.Time, j.Cluster.Topo.NumNodes()),
	}
	f, err := j.Cluster.DFS.Lookup(inputName)
	if err != nil {
		panic("engine: input file must exist: " + err.Error())
	}
	for i, b := range f.Blocks {
		am.maps = append(am.maps, &taskState{typ: faults.Map, idx: i, block: b})
	}
	am.mofs = make([]*mofEntry, len(am.maps))
	am.rerunScheduled = make([]bool, len(am.maps))
	for i := 0; i < j.Spec.NumReduces; i++ {
		am.reduces = append(am.reduces, &taskState{typ: faults.Reduce, idx: i})
	}
	j.Cluster.AddNodeLostListener(am.onNodeLost)
	j.Cluster.AddReachabilityListener(func(id topology.NodeID, reachable bool) {
		for _, ex := range am.reduceExecs {
			ex.onReachabilityChanged(id, reachable)
		}
	})
	return am
}

func (am *appMaster) start() {
	for _, t := range am.maps {
		am.launchMap(t, false, topology.Invalid)
	}
	am.job.Eng.Post(am.conf.HeartbeatInterval, am.monitorTick)
}

func (am *appMaster) task(typ faults.TaskType, idx int) *taskState {
	var list []*taskState
	if typ == faults.Map {
		list = am.maps
	} else {
		list = am.reduces
	}
	if idx < 0 || idx >= len(list) {
		return nil
	}
	return list[idx]
}

// ---- launching ----

func (am *appMaster) launchMap(t *taskState, highPrio bool, avoid topology.NodeID) {
	a := &attempt{
		typ: faults.Map, taskIdx: t.idx, attemptNo: len(t.attempts),
		node: topology.Invalid, highPrio: highPrio, avoid: avoid,
	}
	a.id = attemptID(faults.Map, t.idx, a.attemptNo)
	// Locality: prefer nodes holding a replica of the split. The policy
	// may reorder or replace the preference list (failure-aware
	// placement); legacy policies return it unchanged.
	for _, r := range t.block.Replicas {
		if r != avoid {
			a.prefer = append(a.prefer, r)
		}
	}
	a.prefer = am.policy.PlaceAttempt(am, faults.Map, t.idx, a.prefer)
	t.attempts = append(t.attempts, a)
	prio := 0
	if highPrio {
		prio = 10
	}
	a.cancelReq = am.job.Cluster.Allocate(&cluster.Request{
		MemMB:     am.conf.MapMemoryMB,
		Preferred: a.prefer,
		Priority:  prio,
		Grant:     func(ct *cluster.Container) { am.startMapAttempt(t, a, ct) },
	})
}

func (am *appMaster) startMapAttempt(t *taskState, a *attempt, ct *cluster.Container) {
	if am.jobDone || a.state != attemptPending || (t.done && !t.rerunInFlight) {
		am.job.Cluster.Release(ct)
		if a.state == attemptPending {
			a.state = attemptKilled
		}
		return
	}
	a.state = attemptRunning
	a.node = ct.Node
	a.container = ct
	a.lastProgress = am.job.Eng.Now()
	a.launchedAt = am.job.Eng.Now()
	a.launched = true
	ct.OnKill = func(string) { /* handled via onNodeLost */ }
	am.job.Tracer.Emit(am.job.Eng.Now(), trace.KindTaskLaunched, a.id, a.nodeName(am.job), "map")
	ex := newMapExec(am.job, t, a)
	a.exec = ex
	ex.start()
}

// reduceLaunchOpts configures a reduce attempt launch.
type reduceLaunchOpts struct {
	fcm         bool
	localResume bool
	prefer      topology.NodeID
	avoid       topology.NodeID
}

func (am *appMaster) launchReduce(t *taskState, opt reduceLaunchOpts) {
	a := &attempt{
		typ: faults.Reduce, taskIdx: t.idx, attemptNo: len(t.attempts),
		node: topology.Invalid, fcm: opt.fcm, localResume: opt.localResume, avoid: opt.avoid,
	}
	a.id = attemptID(faults.Reduce, t.idx, a.attemptNo)
	if opt.prefer != topology.Invalid {
		a.prefer = []topology.NodeID{opt.prefer}
	}
	a.prefer = am.policy.PlaceAttempt(am, faults.Reduce, t.idx, a.prefer)
	t.attempts = append(t.attempts, a)
	if opt.fcm {
		am.fcmRunning++
	}
	// The first request deliberately does NOT carry Request.Avoid: the
	// historical contract is that a grant on the avoided node bounces in
	// startReduceAttempt (release + re-request), and that bounce's side
	// effects (round-robin advance, new queue position) are part of the
	// deterministic placement order that golden traces pin. Only the
	// re-request threads the avoid through as a hard RM-side constraint,
	// which is what prevents the bounce from repeating forever.
	a.cancelReq = am.job.Cluster.Allocate(&cluster.Request{
		MemMB:     am.conf.ReduceMemoryMB,
		Preferred: a.prefer,
		Priority:  5,
		Grant:     func(ct *cluster.Container) { am.startReduceAttempt(t, a, ct) },
	})
}

func (am *appMaster) startReduceAttempt(t *taskState, a *attempt, ct *cluster.Container) {
	if am.jobDone || a.state != attemptPending || t.done {
		am.job.Cluster.Release(ct)
		if a.state == attemptPending {
			am.dropAttempt(a)
		}
		return
	}
	if a.avoid != topology.Invalid && ct.Node == a.avoid {
		// The RM handed us the node we must avoid (the first request
		// carries no Avoid on purpose — see launchReduce). Bounce once:
		// release and re-request, now with the hard RM-side constraint.
		// A bare re-request here would livelock the RM's serve loop when
		// the avoided node is the only one with free memory (grant →
		// release → re-grant of the same node, synchronously, forever);
		// with Avoid threaded through, the re-request instead waits in
		// queue until some other node has capacity.
		am.job.Cluster.Release(ct)
		a.cancelReq = am.job.Cluster.Allocate(&cluster.Request{
			MemMB:    am.conf.ReduceMemoryMB,
			Avoid:    []topology.NodeID{a.avoid},
			Priority: 5,
			Grant:    func(c2 *cluster.Container) { am.startReduceAttempt(t, a, c2) },
		})
		return
	}
	a.state = attemptRunning
	a.node = ct.Node
	a.container = ct
	a.lastProgress = am.job.Eng.Now()
	a.launchedAt = am.job.Eng.Now()
	a.launched = true
	ct.OnKill = func(string) { /* handled via onNodeLost */ }
	kind := "reduce"
	if a.fcm {
		kind = "reduce-fcm"
		am.job.Tracer.Emit(am.job.Eng.Now(), trace.KindFCMStarted, a.id, a.nodeName(am.job), "")
	}
	am.job.Tracer.Emit(am.job.Eng.Now(), trace.KindTaskLaunched, a.id, a.nodeName(am.job), kind)
	var ex executor
	if a.fcm {
		ex = newFCMExec(am.job, t, a)
	} else {
		ex = newReduceExec(am.job, t, a)
	}
	a.exec = ex
	ex.start()
}

// dropAttempt marks a pending/running attempt killed without counting it
// as a failure (e.g., speculative sibling lost the race).
func (am *appMaster) dropAttempt(a *attempt) {
	if a.state == attemptSucceeded || a.state == attemptFailed || a.state == attemptKilled {
		return
	}
	prev := a.state
	a.state = attemptKilled
	a.launched = false
	a.launchedAt = 0
	if a.cancelReq != nil {
		a.cancelReq()
	}
	if a.fcm {
		am.fcmRunning--
	}
	if prev == attemptRunning {
		if a.exec != nil {
			a.exec.kill()
		}
		if a.container != nil {
			am.job.Cluster.Release(a.container)
		}
		am.job.Tracer.Emit(am.job.Eng.Now(), trace.KindTaskKilled, a.id, a.nodeName(am.job), "superseded")
	}
}

// ---- completion ----

func (am *appMaster) mapFinished(t *taskState, a *attempt, parts []*merge.Segment) {
	am.mapFinishedISS(t, a, parts, nil)
}

// mapFinishedISS registers a completed map with optional ISS replica
// locations.
func (am *appMaster) mapFinishedISS(t *taskState, a *attempt, parts []*merge.Segment, issReplicas []topology.NodeID) {
	if am.jobDone || a.state != attemptRunning {
		return
	}
	a.state = attemptSucceeded
	a.progress = 1
	a.launched = false
	a.launchedAt = 0
	am.job.Cluster.Release(a.container)
	am.job.Tracer.Emit(am.job.Eng.Now(), trace.KindTaskFinished, a.id, a.nodeName(am.job), "map")
	prev := am.mofs[t.idx]
	gen := 1
	if prev != nil {
		gen = prev.gen + 1
	}
	am.mofs[t.idx] = &mofEntry{node: a.node, parts: parts, gen: gen, issReplicas: issReplicas}
	t.rerunInFlight = false
	am.rerunScheduled[t.idx] = false
	if !t.done {
		t.done = true
		t.winner = a
		am.completedMaps++
		if am.completedMaps == len(am.maps) {
			am.job.result.MapPhaseDone = am.job.Eng.Now() - am.job.startAt
		}
		am.maybeLaunchReduces()
	}
	// Wake shufflers waiting for this MOF (first generation or regen).
	for _, ex := range am.reduceExecs {
		ex.onMapAvailable(t.idx)
	}
	am.job.checkInjections()
}

// reduceOutcome carries a successful reduce attempt's results.
type reduceOutcome struct {
	output        []mr.Record
	outputLogical int64
	restored      algCommit
}

func (am *appMaster) reduceFinished(t *taskState, a *attempt, out reduceOutcome) {
	if am.jobDone || a.state != attemptRunning {
		return
	}
	if t.done {
		// Lost the commit race; discard.
		am.dropAttempt(a)
		return
	}
	a.state = attemptSucceeded
	a.progress = 1
	a.launched = false
	a.launchedAt = 0
	a.output = out.output
	a.outputLogical = out.outputLogical
	a.restored = out.restored
	if a.fcm {
		am.fcmRunning--
	}
	am.job.Cluster.Release(a.container)
	am.job.Tracer.Emit(am.job.Eng.Now(), trace.KindTaskFinished, a.id, a.nodeName(am.job), "reduce")
	t.done = true
	t.winner = a
	// Kill speculative siblings.
	for _, sib := range t.attempts {
		if sib != a {
			am.dropAttempt(sib)
		}
	}
	for _, rt := range am.reduces {
		if !rt.done {
			return
		}
	}
	am.jobDone = true
	am.job.finish(false, "")
}

// ---- failure handling ----

// attemptFailed is the single entry point for every attempt death that
// counts as a failure (injected error, fetch starvation, timeout, node
// loss).
func (am *appMaster) attemptFailed(a *attempt, reason string) {
	if am.jobDone || (a.state != attemptRunning && a.state != attemptPending) {
		return
	}
	t := am.task(a.typ, a.taskIdx)
	wasRunning := a.state == attemptRunning
	a.state = attemptFailed
	a.launched = false
	a.launchedAt = 0
	if a.cancelReq != nil {
		a.cancelReq()
	}
	if a.fcm {
		am.fcmRunning--
	}
	if wasRunning {
		if a.exec != nil {
			a.exec.kill()
		}
		if a.container != nil {
			am.job.Cluster.Release(a.container)
		}
	}
	am.job.Tracer.Emit(am.job.Eng.Now(), trace.KindTaskFailed, a.id, a.nodeName(am.job), reason)
	t.failures++
	am.noteNodeFailure(a.node)
	if a.typ == faults.Map {
		am.job.result.MapAttemptFailures++
	} else {
		am.job.result.ReduceAttemptFailures++
		// "Additional" failures are the paper's infected healthy tasks:
		// reducers killed by fetch starvation or progress stalls while
		// their own node was fine — not directly injected task faults.
		if wasRunning && am.job.Cluster.NodeReachable(a.node) &&
			(reason == "too many fetch failures" || reason == "progress timeout") {
			am.job.result.AdditionalReduceFailures++
		}
		if am.job.tier != nil && !t.done {
			am.resetDelivered(a.taskIdx)
		}
	}
	if t.failures >= am.conf.MaxTaskAttempts {
		am.jobDone = true
		am.job.finish(true, fmt.Sprintf("task %s failed %d times (last: %s)",
			attemptID(a.typ, a.taskIdx, 0)[:5], t.failures, reason))
		return
	}
	am.policy.OnAttemptFailed(am, FailedAttempt{
		Typ: a.typ, TaskIdx: a.taskIdx, Node: a.node, HighPrio: a.highPrio, Reason: reason,
	})
}

// noteNodeFailure charges one attempt failure to the node's history.
func (am *appMaster) noteNodeFailure(node topology.NodeID) {
	if node == topology.Invalid {
		return
	}
	am.nodeFailures[node]++
	am.lastNodeFailure[node] = am.job.Eng.Now()
}

// SchedulerView implementation for core.Algorithm1 (also part of
// PolicyContext; the rest lives in policy_context.go).
func (am *appMaster) AttemptsOnNode(reduceIdx int, node topology.NodeID) int {
	n := 0
	for _, a := range am.reduces[reduceIdx].attempts {
		if a.node == node {
			n++
		}
	}
	return n
}

func (am *appMaster) RunningAttempts(reduceIdx int) int {
	return am.reduces[reduceIdx].liveAttempts()
}

func (am *appMaster) FCMTasksInJob() int { return am.fcmRunning }

// ---- node loss & fetch failures ----

func (am *appMaster) onNodeLost(node topology.NodeID) {
	if am.jobDone {
		return
	}
	am.job.Tracer.Emit(am.job.Eng.Now(), trace.KindNodeDetected, "", am.job.Cluster.Topo.Node(node).Name, "heartbeat expiry")
	am.policy.OnNodeLost(am, node)
}

// markFailedNoRecover accounts an attempt failure without triggering the
// per-attempt recovery policy (used when a batch report follows).
func (am *appMaster) markFailedNoRecover(a *attempt, reason string) {
	if a.state != attemptRunning && a.state != attemptPending {
		return
	}
	t := am.task(a.typ, a.taskIdx)
	wasRunning := a.state == attemptRunning
	a.state = attemptFailed
	a.launched = false
	a.launchedAt = 0
	if a.cancelReq != nil {
		a.cancelReq()
	}
	if a.fcm {
		am.fcmRunning--
	}
	if wasRunning {
		if a.exec != nil {
			a.exec.kill()
		}
		if a.container != nil {
			am.job.Cluster.Release(a.container)
		}
	}
	am.job.Tracer.Emit(am.job.Eng.Now(), trace.KindTaskFailed, a.id, a.nodeName(am.job), reason)
	t.failures++
	am.noteNodeFailure(a.node)
	if a.typ == faults.Map {
		am.job.result.MapAttemptFailures++
	} else {
		am.job.result.ReduceAttemptFailures++
		if am.job.tier != nil && !t.done {
			am.resetDelivered(a.taskIdx)
		}
	}
	if t.failures >= am.conf.MaxTaskAttempts {
		am.jobDone = true
		am.job.finish(true, fmt.Sprintf("task failed %d times (last: %s)", t.failures, reason))
	}
}

func (am *appMaster) mapsWithMOFOn(node topology.NodeID) []int {
	if am.job.tier != nil {
		// Remote shuffle: committed MOFs live in the tier, not on map
		// nodes, so losing a map node invalidates nothing already pushed.
		// Under-replicated segments are repaired by the tier itself
		// (re-replication or re-push), surfacing as tierRerunNeeded only
		// when no copy survives anywhere.
		return nil
	}
	out := make([]int, 0, len(am.mofs))
	for i, m := range am.mofs {
		if m != nil && m.node == node && !am.rerunScheduled[i] {
			out = append(out, i)
		}
	}
	return out
}

// mofHost resolves where a map's output can currently be fetched from:
// the producing node, or (under ISS) a reachable HDFS replica.
func (am *appMaster) mofHost(mapIdx int) (topology.NodeID, bool) {
	m := am.mofs[mapIdx]
	if m == nil {
		return topology.Invalid, false
	}
	if am.job.Cluster.NodeReachable(m.node) {
		return m.node, true
	}
	for _, r := range m.issReplicas {
		if am.job.Cluster.NodeReachable(r) {
			return r, true
		}
	}
	return topology.Invalid, false
}

func (am *appMaster) mofAvailable(mapIdx int) bool {
	if tier := am.job.tier; tier != nil {
		return am.mofs[mapIdx] != nil && tier.FullyServable(mapIdx)
	}
	_, ok := am.mofHost(mapIdx)
	return ok
}

// onFetchFailureReport handles a reducer's report that maps on a host
// could not be fetched.
func (am *appMaster) onFetchFailureReport(reduceIdx int, host topology.NodeID, mapIdxs []int) {
	if am.jobDone {
		return
	}
	am.job.Tracer.Emit(am.job.Eng.Now(), trace.KindFetchFailure,
		attemptID(faults.Reduce, reduceIdx, 0), am.job.Cluster.Topo.Node(host).Name,
		fmt.Sprintf("%d maps", len(mapIdxs)))
	am.policy.OnFetchFailureReport(am, FetchFailureReport{ReduceIdx: reduceIdx, Host: host, MapIdxs: mapIdxs})
}

// registerExec / unregisterExec maintain the deterministic listener list.
func (am *appMaster) registerExec(ex mapAvailListener) {
	am.reduceExecs = append(am.reduceExecs, ex)
}

func (am *appMaster) unregisterExec(ex mapAvailListener) {
	for i, e := range am.reduceExecs {
		if e == ex {
			am.reduceExecs = append(am.reduceExecs[:i], am.reduceExecs[i+1:]...)
			return
		}
	}
}

// onFetchStarvationDeath implements Hadoop's TooManyFetchFailureTransition:
// when a reducer dies of fetch starvation, the AM re-executes the maps it
// was blocked on (their output is evidently gone), in every mode; the
// policy picks the regeneration priority.
func (am *appMaster) onFetchStarvationDeath(blockedMaps []int) {
	am.policy.OnStarvationDeath(am, blockedMaps)
}

// shouldWait reports whether a reducer blocked on this map should wait
// (SFM wait advisory) instead of accumulating failures.
func (am *appMaster) shouldWait(mapIdx int) bool {
	if tier := am.job.tier; tier != nil && tier.Recovering(mapIdx) {
		// The tier is re-replicating or re-pushing this map's segments;
		// a strike now would be the amplification the tier exists to stop.
		return true
	}
	return am.policy.ShouldWait(am, mapIdx)
}

// tierChanged fans a shuffle-tier state change (replica gained or lost,
// tier node crashed or healed, hot flag flipped) to every running reduce
// executor so serving hosts are re-resolved. The scope is the tier's:
// map m and partitions parts (nil: all of m's), or every map when m < 0.
// Testing builds then check every shuffling reducer's index against a
// full scan, so a change the scope missed fails where it happened.
func (am *appMaster) tierChanged(m int, parts []int) {
	if am.jobDone {
		return
	}
	for _, ex := range am.reduceExecs {
		ex.onTierChanged(m, parts)
	}
	if !invariantsEnabled {
		return
	}
	for _, ex := range am.reduceExecs {
		if r, ok := ex.(*reduceExec); ok && r.indexLive() {
			r.checkHostIndex()
		}
	}
}

// resetDelivered tells the tier that partition r's fetched segments
// died with its attempt: the next attempt refetches, so the tier owes
// the partition again. The tier's Recovering reads those delivery flags,
// so the wait advisory is re-evaluated for every map.
func (am *appMaster) resetDelivered(r int) {
	am.job.tier.ResetDelivered(r)
	am.waitChanged(-1)
}

// waitChanged tells every running reduce executor that shouldWait(m)
// may have flipped (m < 0: for any map) without a serving host moving:
// a map rerun was scheduled, or the tier's delivery state changed.
func (am *appMaster) waitChanged(m int) {
	for _, ex := range am.reduceExecs {
		ex.onWaitChanged(m)
	}
}

// tierRerunNeeded fires when a committed map's segments were lost from
// every tier replica and the producing node is gone too: the only copy
// left is the input split, so the map must re-execute and re-push.
func (am *appMaster) tierRerunNeeded(mapIdx int) {
	if am.jobDone || am.rerunScheduled[mapIdx] {
		return
	}
	am.ScheduleMapRerun(mapIdx, true, topology.Invalid, "tier replicas lost; source node dark")
}

// ---- reduce launch gating ----

func (am *appMaster) maybeLaunchReduces() {
	if am.reducesLaunched {
		return
	}
	need := int(math.Ceil(am.conf.SlowStartFraction * float64(len(am.maps))))
	if need < 1 {
		need = 1
	}
	if am.completedMaps < need {
		return
	}
	am.reducesLaunched = true
	for _, t := range am.reduces {
		am.launchReduce(t, reduceLaunchOpts{prefer: topology.Invalid})
	}
}

// ---- progress & timeouts ----

// reportProgress is called by executors; it only lands if the attempt's
// node can reach the AM.
func (am *appMaster) reportProgress(a *attempt, p float64) {
	if a.state != attemptRunning {
		return
	}
	if !am.job.Cluster.NodeReachable(a.node) {
		return // heartbeat lost in the dark
	}
	if p > 1 {
		p = 1
	}
	a.progress = p
	a.lastProgress = am.job.Eng.Now()
	am.job.checkInjections()
}

func (am *appMaster) monitorTick() {
	if am.jobDone {
		return
	}
	now := am.job.Eng.Now()
	for _, lists := range [][]*taskState{am.maps, am.reduces} {
		for _, t := range lists {
			for _, a := range t.attempts {
				if a.state == attemptRunning && now-a.lastProgress > am.conf.TaskTimeout {
					am.attemptFailed(a, "progress timeout")
					if am.jobDone {
						return
					}
				}
			}
		}
	}
	am.assertLaunchTimes()
	am.policy.OnStragglerTick(am)
	am.job.Eng.Post(am.conf.HeartbeatInterval, am.monitorTick)
}

// nodeWithMOFsButNoReduce picks the node hosting the most MOFs among
// nodes with no running reduce attempt (Fig. 4 scenario).
func (am *appMaster) nodeWithMOFsButNoReduce() topology.NodeID {
	// Dense NodeID-indexed tables; the ascending scan with a strict ">"
	// reproduces the old sorted-keys traversal (lowest node ID wins ties).
	numNodes := am.job.Cluster.Topo.NumNodes()
	counts := make([]int, numNodes)
	excluded := make([]bool, numNodes)
	for _, m := range am.mofs {
		if m != nil {
			counts[m.node]++
		}
	}
	for _, t := range am.reduces {
		for _, a := range t.attempts {
			if a.state == attemptRunning {
				excluded[a.node] = true
			}
		}
	}
	best := topology.Invalid
	bestCount := 0
	for n := 0; n < numNodes; n++ {
		if !excluded[n] && counts[n] > bestCount {
			best, bestCount = topology.NodeID(n), counts[n]
		}
	}
	return best
}

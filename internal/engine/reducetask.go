package engine

import (
	"slices"
	"sort"
	"strconv"

	"alm/internal/core"
	"alm/internal/dfs"
	"alm/internal/fairshare"
	"alm/internal/merge"
	"alm/internal/mr"
	"alm/internal/sim"
	"alm/internal/topology"
	"alm/internal/trace"
)

// mapAvailListener is notified when a map's output becomes available
// (first completion or regeneration), when a node's reachability flips,
// and — under remote shuffle — when the tier's serving state changes:
// the three events that move a pending map between serving hosts. It
// also hears when the wait advisory for a map (or, m < 0, for any map)
// may have flipped while its serving host stayed put.
type mapAvailListener interface {
	onMapAvailable(mapIdx int)
	onReachabilityChanged(id topology.NodeID, reachable bool)
	onTierChanged(m int, parts []int)
	onWaitChanged(m int)
}

// reduceExec runs one regular ReduceTask attempt through the three
// stages: shuffle (fetch MOF partitions, spilling and merging in the
// background), merge (final merge passes down to io.sort.factor runs) and
// reduce (MPQ traversal applying the user reduce function, streaming
// output to HDFS). It implements the stock YARN fetch-failure behaviour
// and, when the job mode enables them, ALG logging/replay and the SFM
// wait advisory.
type reduceExec struct {
	attemptRun
	conf mr.Config
	// diskOps tracks the in-flight disk-op flows counted by
	// pendingDiskOps, in checked builds only, so assertDiskOps can
	// check the two agree.
	diskOps []fairshare.Flow

	stage core.Stage

	// Shuffle state.
	copied      []bool
	copiedCount int
	// hostIdx also holds the per-host strike counts and fetch flow names
	// (hostSlot), in one table over the hosts that served maps.
	hostIdx          *hostIndex
	lastFetchSuccess sim.Time
	sessions         int
	// inMem holds fetched segments still in the shuffle buffer, each one
	// map's partition; inMemMaps[i] is the map whose partition inMem[i]
	// is. A spilled segment's maps are in its node's segMaps. Those two
	// are the only record of which maps the attempt holds: every restore
	// derives its copied set from the segments it restores.
	inMem          []*merge.Segment
	inMemMaps      []int
	inMemBytes     int64
	onDisk         []*merge.Segment
	memoryLimit    int64
	inMemMergeBusy bool
	spillSeq       int
	// pendingDiskOps counts in-flight spills and in-memory merges; the
	// final merge must not start until they all land.
	pendingDiskOps int
	mergeStarted   bool
	// shufflePort caps this reducer's aggregate ingest rate.
	shufflePort *fairshare.Port

	// Merge stage.
	mergeNeeded int64
	mergeDone   int64

	// Reduce stage.
	finalSegs    []*merge.Segment
	cursor       *merge.GroupCursor
	totalLogical int64
	totalReal    int
	processed    int64
	// realBase counts real records consumed before this cursor was
	// constructed (local log restore); skipReal is the fast-forward
	// watermark for an HDFS-log restore on a fresh shuffle.
	realBase        int
	skipReal        int
	restoredLogical int64
	// output is append-only: emitFn appends and a checkpoint restore
	// replaces the whole slice, so no element is ever rewritten. Committed
	// flushes (snapshotReduce) hold capped views output[:n:n] into it
	// instead of copies.
	output          []mr.Record
	outputLogical   int64
	outWriter       *dfs.StreamWriter
	processedGroups int

	// ALG state.
	algSeq     int
	algPending bool
	// lastFlushedOutput tracks the output watermark already flushed to
	// HDFS (records of *this* attempt's output slice).
	lastFlushedRecords int
	lastFlushedLogical int64
	// restored is the committed snapshot inherited from a previous
	// attempt (zero if none), so this attempt's flushes extend its
	// flushed prefix.
	restored algCommit
	// flushedBuf is a restored attempt's append-only flushed prefix: the
	// inherited records, copied once, then this attempt's output as it
	// is flushed. Committed flushes hold capped views of it.
	flushedBuf []mr.Record

	// Heavyweight checkpoint state (see checkpoint.go).
	ckptPending        bool
	ckptBusy           bool
	ckptRestoring      bool
	ckptSeq            int
	ckptRestoredOutput int64

	// Interned identifiers (see names.go): stable prefixes computed once
	// per attempt; sequence-numbered paths render through nameBuf. Fetch
	// flow names are interned per host in hostIdx.
	spillPrefix  string
	mergedPrefix string
	immergeName  string
	reduceName   string
	ckptPrefix   string
	nameBuf      []byte

	// Pre-bound callbacks for the recurring timers, the fetcher wake and
	// the reduce-output emitter, so the hot loops allocate neither method
	// values nor closures; the paired Timers are re-armed in place by
	// rearm.
	algFn     func()
	ckptFn    func()
	fillFn    func()
	emitFn    func(string, string)
	algTimer  heldTimer
	ckptTimer heldTimer

	// Run-local free lists (single-goroutine event loop: plain slices,
	// no sync.Pool) for the shuffle's high-churn objects, plus scratch
	// slices reused across calls. Pooled objects never cross runs — the
	// exec, and with it every pool, is per-attempt.
	sessFree  []*fetchSession
	watchFree []*fetchWatch
	// detached is a FIFO ring of the tick timers of landed sessions'
	// watches (detachTick): detachedLen of them, the oldest at
	// detachedHead. The oldest is lent to the next watch once it has
	// fired (tickTimer).
	detached     []*heldTimer
	detachedHead int
	detachedLen  int
	portScratch  []*fairshare.Port
	pendScratch  []int
}

func newReduceExec(j *Job, t *taskState, a *attempt) *reduceExec {
	r := &reduceExec{
		attemptRun: attemptRun{job: j, t: t, a: a},
		conf:       j.Spec.Conf,
		copied:     make([]bool, len(j.am.maps)),
		stage:      core.StageShuffle,
	}
	r.memoryLimit = int64(float64(r.conf.ReduceMemoryMB) * 1024 * 1024 * r.conf.ShuffleMemoryShare)
	r.lastFetchSuccess = j.Eng.Now()
	r.spillPrefix = a.id + "/spill-"
	r.mergedPrefix = a.id + "/merged-"
	r.immergeName = a.id + "/immerge"
	r.reduceName = a.id + "/reduce"
	{
		b := make([]byte, 0, len(j.Spec.Name)+16)
		b = append(b, "ckpt/"...)
		b = append(b, j.Spec.Name...)
		b = append(b, "/r"...)
		b = appendPad3(b, t.idx)
		b = append(b, '/')
		r.ckptPrefix = string(b)
	}
	r.algFn = r.algTick
	r.ckptFn = r.ckptTick
	r.fillFn = r.fillFetchers
	r.emitFn = func(k, v string) { r.output = append(r.output, mr.Record{Key: k, Value: v}) }
	return r
}

// seqPath renders prefix+n, reusing the exec's scratch buffer.
func (r *reduceExec) seqPath(prefix string, n int) string {
	s, buf := seqName(r.nameBuf, prefix, n)
	r.nameBuf = buf
	return s
}

// fetchFlowName interns the per-host fetch flow name ("r_003_0<-7"); a
// reducer can fetch from a host many times while it serves pending maps
// (a shuffle-tier node serves thousands of sessions), and the rendered
// name is identical every time. The index drops it when the host's list
// empties.
func (r *reduceExec) fetchFlowName(host topology.NodeID) string {
	h := r.hostIdx.host(int32(host))
	if h.name == "" {
		b := append(append(r.nameBuf[:0], r.a.id...), "<-"...)
		r.nameBuf = strconv.AppendInt(b, int64(host), 10)
		h.name = string(r.nameBuf)
	}
	return h.name
}

func (r *reduceExec) kill() {
	r.job.am.unregisterExec(r)
	r.stop()
	if r.outWriter != nil {
		r.outWriter.Abort()
	}
}

// addDiskFlow registers a flow whose completion decrements
// pendingDiskOps; checked builds also keep it in diskOps.
func (r *reduceExec) addDiskFlow(f fairshare.Flow) {
	r.addFlow(f)
	if invariantsEnabled {
		r.diskOps = append(slices.DeleteFunc(r.diskOps, fairshare.Flow.Ended), f)
	}
}

func (r *reduceExec) start() {
	// Container localization + JVM startup.
	r.after(r.conf.TaskLaunchOverhead, r.begin)
}

func (r *reduceExec) begin() {
	if r.dead {
		return
	}
	r.job.am.registerExec(r)
	r.rebuildHostIndex()
	r.shufflePort = r.job.Cluster.Net.System().NewPort(r.a.id+"/shuffle-cpu", r.conf.Costs.ShuffleCPURate)
	r.startHeartbeat(r)
	if r.job.Spec.Checkpoint.Enabled {
		r.rearm(&r.ckptTimer, r.job.Spec.Checkpoint.Interval, r.ckptFn)
		if r.tryCheckpointRestore() {
			return // execution resumes once the image read lands
		}
	}
	if r.job.Spec.Mode.ALGEnabled() {
		if r.a.localResume && r.tryLocalRestore() {
			// Restored; execution continues from the restored stage.
		} else if r.tryHDFSRestore() {
			// Migration restore: shuffle everything again but skip the
			// already-reduced prefix in the reduce stage.
		}
		r.rearm(&r.algTimer, r.job.Spec.ALG.Interval, r.algFn)
	}
	r.resume()
}

// resume runs the attempt from the state begin or a checkpoint restore
// left: a reduce-stage restore jumps straight into the reduce loop,
// anything else shuffles what is still missing.
func (r *reduceExec) resume() {
	if r.stage == core.StageReduce && r.cursor != nil {
		r.enterReduceLoop()
		return
	}
	r.fillFetchers()
}

func (r *reduceExec) progress() float64 {
	var shuffle, mergeF, reduceF float64
	if n := len(r.copied); n > 0 {
		shuffle = float64(r.copiedCount) / float64(n)
	}
	switch {
	case r.stage == core.StageShuffle:
		mergeF, reduceF = 0, 0
	case r.stage == core.StageMerge:
		if r.mergeNeeded > 0 {
			mergeF = float64(r.mergeDone) / float64(r.mergeNeeded)
		} else {
			mergeF = 1
		}
	default:
		mergeF = 1
		if r.totalLogical > 0 {
			reduceF = float64(r.processed) / float64(r.totalLogical)
		} else {
			reduceF = 1
		}
	}
	// mergeNeeded is an estimate made before the first merge pass; deep
	// merges (> 2 passes) can push mergeDone past it, and a stage fraction
	// above 1 leaks into later stages' progress. Clamp each stage to [0,1].
	return (clamp01(shuffle) + clamp01(mergeF) + clamp01(reduceF)) / 3
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ---- shuffle ----

// fillFetchers starts fetch sessions up to the parallelism limit.
func (r *reduceExec) fillFetchers() {
	if r.dead || r.stage != core.StageShuffle || r.ckptBusy || r.ckptRestoring {
		return
	}
	for r.sessions < r.conf.ParallelFetches {
		host, ok := r.pickHost()
		if !ok {
			break
		}
		r.sessions++
		r.hostIdx.setBusy(int(host), true)
		r.runSession(host)
	}
	if r.copiedCount == len(r.copied) {
		r.shuffleDone()
	}
}

// pickHost chooses a host that currently serves pending maps and has no
// active session from this reducer. Hadoop fetchers pick hosts in random
// order; we draw uniformly from the eligible set (deterministically, via
// the engine's seeded source) so no host's data is systematically drained
// first.
//
// The eligible hosts, ordered by their smallest pending map index that
// is not under the SFM wait advisory, are the index's candidates in
// ascending map order (see hostindex.go), so the draw selects a rank in
// the candidate set without visiting a host.
func (r *reduceExec) pickHost() (topology.NodeID, bool) {
	r.checkHostIndex()
	ix := r.hostIdx
	if ix.nCand == 0 {
		return topology.Invalid, false
	}
	return topology.NodeID(ix.pick(r.job.Eng.Rand().Intn(ix.nCand))), true
}

// pendingOn lists pending map indices currently served by the node
// (either the producing node or, under ISS, a replica host), in ascending
// map order. The returned slice is scratch, valid only until the next
// call; callers must not retain it.
func (r *reduceExec) pendingOn(host topology.NodeID) []int {
	r.pendScratch = r.hostIdx.appendOn(r.pendScratch[:0], int(host))
	return r.pendScratch
}

// fetchSession carries one fetch's batch and generation snapshot from
// StartFlow to its completion callback. Sessions recycle through sessFree
// at sessionDone, so a long shuffle churns a handful of objects instead of
// one batch slice + generation map per fetch. doneFn is bound once, at
// allocation.
type fetchSession struct {
	r      *reduceExec
	host   topology.NodeID
	batch  []int
	gens   []int
	watch  *fetchWatch
	doneFn func()
}

func (r *reduceExec) newSession(host topology.NodeID) *fetchSession {
	var s *fetchSession
	if n := len(r.sessFree); n > 0 {
		s = r.sessFree[n-1]
		r.sessFree[n-1] = nil
		r.sessFree = r.sessFree[:n-1]
	} else {
		s = &fetchSession{r: r}
		s.doneFn = func() { s.r.sessionDone(s) }
	}
	s.host = host
	return s
}

func (r *reduceExec) recycleSession(s *fetchSession) {
	s.batch = s.batch[:0]
	s.gens = s.gens[:0]
	s.watch = nil
	r.sessFree = append(r.sessFree, s)
}

// runSession opens one fetch against host: per-fetch, the hottest path
// in a shuffle-bound run.
func (r *reduceExec) runSession(host topology.NodeID) {
	if r.dead {
		return
	}
	sess := r.newSession(host)
	sess.batch = r.hostIdx.appendOn(sess.batch[:0], int(host))
	if len(sess.batch) == 0 {
		r.recycleSession(sess)
		r.endSession(host)
		return
	}
	if len(sess.batch) > r.conf.MaxMapsPerFetch {
		sess.batch = sess.batch[:r.conf.MaxMapsPerFetch]
	}
	if !r.job.Cluster.Net.Reachable(host, r.a.node) {
		// Connection attempt: times out after FetchConnectTimeout.
		r.recycleSession(sess)
		r.after(r.conf.FetchConnectTimeout, func() { r.sessionFailed(host) })
		return
	}
	if r.job.Cluster.Net.AttemptFails(host, r.a.node, r.job.Eng.Rand()) {
		// Gray link: the host is reachable, but this connection attempt
		// fails (RST / handshake loss). Fails the session after the same
		// connect timeout a real fetcher would burn. Note the stock strike
		// protocol never self-kills on this path — strikes require pending
		// maps on an *unreachable* host — which is exactly the blind spot
		// that lets flaky links degrade jobs without tripping recovery.
		r.recycleSession(sess)
		r.after(r.conf.FetchConnectTimeout, func() { r.sessionFailed(host) })
		return
	}
	var bytes int64
	for _, m := range sess.batch {
		bytes += r.job.am.mofs[m].parts[r.t.idx].LogicalBytes
	}
	for _, m := range sess.batch {
		sess.gens = append(sess.gens, r.job.am.mofs[m].gen)
	}
	ports := append(r.portScratch[:0], r.job.Cluster.Disks.ReadPort(host), r.shufflePort)
	ports = r.job.Cluster.Net.AppendPortsFor(ports, host, r.a.node)
	flow := r.job.Cluster.Net.System().StartFlow(
		r.fetchFlowName(host), bytes, ports, 0, sess.doneFn)
	r.portScratch = ports[:0]
	r.addFlow(flow)
	sess.watch = r.startWatch(host, flow)
}

// fetchWatch aborts a fetch whose flow makes no progress for a connect-
// timeout window (the source died mid-transfer). Its tick runs on a
// recurring tick timer (tk) that the watch borrows from the reducer:
// rearm links each tick timer into held once, when it first arms it, and
// re-arms it in place each round. A watch recycles through watchFree
// from its tick, when the timer has just fired and is idle, or from
// sessionDone, which first detaches the pending tick (detachTick), so a
// recycled watch can never see a stale fire.
type fetchWatch struct {
	r             *reduceExec
	host          topology.NodeID
	flow          fairshare.Flow
	lastRemaining float64
	tk            *heldTimer
	fn            func()
}

func (r *reduceExec) startWatch(host topology.NodeID, flow fairshare.Flow) *fetchWatch {
	var w *fetchWatch
	if n := len(r.watchFree); n > 0 {
		w = r.watchFree[n-1]
		r.watchFree[n-1] = nil
		r.watchFree = r.watchFree[:n-1]
	} else {
		w = &fetchWatch{r: r}
		w.fn = w.tick
	}
	if w.tk == nil {
		w.tk = r.tickTimer()
	}
	w.host = host
	w.flow = flow
	w.lastRemaining = flow.Remaining()
	r.rearm(w.tk, r.conf.FetchConnectTimeout, w.fn)
	return w
}

// tick is the per-interval watchdog probe: fires once per
// FetchConnectTimeout for every in-flight fetch.
func (w *fetchWatch) tick() {
	r := w.r
	if r.dead || w.flow.Ended() {
		w.recycle()
		return
	}
	rem := w.flow.Remaining()
	if rem >= w.lastRemaining-1 {
		flow, host := w.flow, w.host
		w.recycle()
		flow.Cancel()
		r.sessionFailed(host)
		return
	}
	w.lastRemaining = rem
	r.rearm(w.tk, r.conf.FetchConnectTimeout, w.fn)
}

func (w *fetchWatch) recycle() {
	w.flow = fairshare.Flow{}
	w.r.watchFree = append(w.r.watchFree, w)
}

// noTick is the callback of a detached watch tick.
func noTick() {}

// detachTick frees a landed session's watch. Its flow has ended, and a
// fairshare.Flow handle stays ended, so the pending tick could only find
// it so and recycle. The tick is rebound to noTick instead and queued on
// detached, and the watch recycles at once. The tick still fires, or a
// kill stops it (its timer stays in held), where it would have, so the
// event counts do not move.
func (r *reduceExec) detachTick(w *fetchWatch) {
	w.tk.tm.Rebind(noTick)
	if r.detachedLen == len(r.detached) {
		grown := make([]*heldTimer, max(8, 2*len(r.detached)))
		n := copy(grown, r.detached[r.detachedHead:])
		copy(grown[n:], r.detached[:r.detachedHead])
		r.detached, r.detachedHead = grown, 0
	}
	r.detached[(r.detachedHead+r.detachedLen)%len(r.detached)] = w.tk
	r.detachedLen++
	w.tk = nil
	w.recycle()
}

// tickTimer lends a watch a tick timer: the oldest detached one once it
// has fired, else a new one, which rearm links into held when it first
// arms it.
func (r *reduceExec) tickTimer() *heldTimer {
	if r.detachedLen > 0 {
		if h := r.detached[r.detachedHead]; !h.tm.Active() {
			r.detached[r.detachedHead] = nil
			r.detachedHead = (r.detachedHead + 1) % len(r.detached)
			r.detachedLen--
			return h
		}
	}
	return new(heldTimer)
}

// sessionDone lands one completed fetch: per-fetch, paired with
// runSession.
func (r *reduceExec) sessionDone(s *fetchSession) {
	if r.dead {
		return
	}
	if s.watch != nil {
		r.detachTick(s.watch)
	}
	host := s.host
	am := r.job.am
	anyDelivered := false
	for i, m := range s.batch {
		if r.copied[m] {
			continue
		}
		mof := am.mofs[m]
		if mof == nil || mof.gen != s.gens[i] {
			continue // MOF regenerated under us; refetch later
		}
		seg := mof.parts[r.t.idx]
		r.markCopied(m)
		anyDelivered = true
		r.deliver(m, seg)
	}
	r.recycleSession(s)
	// A session that delivered nothing (every map in it regenerated
	// mid-transfer or delivered by a racing session) is no evidence the
	// host is healthy, so it must not reset the stall clock or the
	// host's strike count.
	if anyDelivered {
		r.lastFetchSuccess = r.job.Eng.Now()
		*r.strikes(host) = 0
	}
	r.job.am.reportProgress(r.a, r.progress())
	r.endSession(host)
}

// strikes is the reducer's count of consecutive failed fetch rounds on
// host, which must have served it a map.
func (r *reduceExec) strikes(host topology.NodeID) *int32 {
	return &r.hostIdx.host(int32(host)).fails
}

func (r *reduceExec) sessionFailed(host topology.NodeID) {
	if r.dead || r.stage != core.StageShuffle {
		return
	}
	*r.strikes(host)++
	r.job.result.FetchRetries++
	r.job.result.Counters.Add("shuffle.fetch_retries", 1)
	r.job.Tracer.Emit(r.job.Eng.Now(), trace.KindFetchRetry, r.a.id,
		r.job.Cluster.Topo.Node(host).Name, "")
	pending := r.pendingOn(host)
	// Hadoop reducers notify the AM of fetch failures only after several
	// consecutive failed rounds on a host — the slow rediscovery that
	// lets the scheduler blame the reducer first. A reducer on an
	// unreachable node cannot report at all.
	if len(pending) > 0 && int(*r.strikes(host)) >= r.conf.FetchRetries &&
		r.job.Cluster.NodeReachable(r.a.node) {
		r.job.am.onFetchFailureReport(r.t.idx, host, pending)
	}
	// Stock YARN: a reducer that has exhausted its retries on a host and
	// is making no shuffle progress declares itself failed — the seed of
	// both failure amplifications.
	now := r.job.Eng.Now()
	if int(*r.strikes(host)) >= r.conf.FetchRetries &&
		now-r.lastFetchSuccess >= r.conf.StallKillWindow &&
		r.anyStrikeablePending() {
		r.endSession(host)
		// Hadoop's TooManyFetchFailureTransition: the reducer's death
		// also condemns the maps it starved on, so the AM regenerates
		// them (this is what eventually unblocks the job even when
		// every notification arrived too late).
		blocked := r.unavailablePending()
		if r.job.Cluster.NodeReachable(r.a.node) {
			r.job.am.onFetchStarvationDeath(blocked)
		}
		r.selfFail("too many fetch failures")
		return
	}
	// Back off, then release the session slot; fillFetchers re-picks.
	r.after(r.conf.FetchRetryBackoff, func() { r.endSession(host) })
}

// selfFail reports a fatal task error to the AM — unless this task's node
// is unreachable, in which case the report cannot be delivered: the task
// strands silently and the AM discovers it via the progress timeout,
// exactly like a real task on a network-dead node.
func (r *reduceExec) selfFail(reason string) {
	if !r.job.Cluster.NodeReachable(r.a.node) {
		r.kill() // stranded
		return
	}
	r.job.am.attemptFailed(r.a, reason)
}

// unavailablePending lists pending maps whose MOFs are unreachable (or,
// under remote shuffle, not servable from any tier replica).
func (r *reduceExec) unavailablePending() []int {
	am := r.job.am
	tier := r.job.tier
	var out []int
	r.hostIdx.pending.each(func(m int) bool {
		mof := am.mofs[m]
		if mof == nil {
			return true
		}
		if tier != nil {
			if !tier.ServableFor(m, r.t.idx) {
				out = append(out, m)
			}
		} else if !r.job.Cluster.NodeReachable(mof.node) {
			out = append(out, m)
		}
		return true
	})
	return out
}

// anyStrikeablePending reports whether some pending map's MOF sits on an
// unreachable node without the SFM wait advisory — the condition under
// which a stock reducer declares "too many fetch failures". With SFM's
// advisory active there is nothing to strike about, so no self-kill.
func (r *reduceExec) anyStrikeablePending() bool {
	am := r.job.am
	tier := r.job.tier
	found := false
	r.hostIdx.pending.each(func(m int) bool {
		mof := am.mofs[m]
		if mof == nil || am.shouldWait(m) {
			return true
		}
		if tier != nil {
			// Remote shuffle: strikes target the tier, not map nodes. A
			// segment with no servable replica and no repair under way
			// (shouldWait covered repairs above) is strikeable.
			if !tier.ServableFor(m, r.t.idx) {
				found = true
				return false
			}
			return true
		}
		if !r.job.Cluster.NodeReachable(mof.node) {
			found = true
			return false
		}
		return true
	})
	return found
}

func (r *reduceExec) endSession(host topology.NodeID) {
	if r.hostIdx.host(int32(host)).busy {
		r.hostIdx.setBusy(int(host), false)
		r.sessions--
	}
	r.fillFetchers()
}

// onMapAvailable wakes the fetch loop when a MOF appears or regenerates.
func (r *reduceExec) onMapAvailable(mapIdx int) {
	if r.dead || r.stage != core.StageShuffle {
		return
	}
	// The map's serving host may have just appeared or moved (regeneration
	// on a different node); fold it into the index before re-picking.
	r.reindexMap(mapIdx)
	if r.copied[mapIdx] {
		return
	}
	r.fillFetchers()
}

// deliver routes a fetched segment to memory or disk, triggering the
// background in-memory merge when the buffer fills.
func (r *reduceExec) deliver(mapIdx int, seg *merge.Segment) {
	cp := &merge.Segment{
		ID:             seg.ID,
		InMemory:       true,
		LogicalBytes:   seg.LogicalBytes,
		LogicalRecords: seg.LogicalRecords,
		Records:        seg.Records,
	}
	if cp.LogicalBytes > r.memoryLimit/4 {
		// Too big for the shuffle buffer: stream straight to disk.
		r.spillSeq++
		path := r.seqPath(r.spillPrefix, r.spillSeq)
		r.pendingDiskOps++
		f := r.job.Cluster.Disks.Write(r.a.node, cp.LogicalBytes, func() {
			// The op is no longer in flight, whether or not we are dead.
			r.pendingDiskOps--
			if r.dead {
				return
			}
			cp.Spill(path)
			r.onDisk = append(r.onDisk, cp)
			r.job.local(r.a.node).putSegment(path, cp, []int{mapIdx})
			r.checkMergeReady()
		})
		r.addDiskFlow(f)
		return
	}
	r.inMem = append(r.inMem, cp)
	r.inMemMaps = append(r.inMemMaps, mapIdx)
	r.inMemBytes += cp.LogicalBytes
	if float64(r.inMemBytes) >= r.conf.InMemMergeThreshold*float64(r.memoryLimit) && !r.inMemMergeBusy {
		r.mergeInMemory(nil)
	}
}

// mergeInMemory merges the current in-memory segments and spills the
// result to disk; done (optional) runs after the spill lands.
func (r *reduceExec) mergeInMemory(done func()) {
	if len(r.inMem) == 0 {
		if done != nil {
			done()
		}
		return
	}
	r.inMemMergeBusy = true
	segs := r.inMem
	bytes := r.inMemBytes
	r.inMem = nil
	r.inMemBytes = 0
	mapIDs := append(make([]int, 0, len(r.inMemMaps)), r.inMemMaps...)
	r.inMemMaps = r.inMemMaps[:0]
	sort.Ints(mapIDs)
	r.spillSeq++
	path := r.seqPath(r.mergedPrefix, r.spillSeq)
	merged := merge.MergeSegments(path, r.cmp(), segs)
	r.pendingDiskOps++
	ports := append(r.portScratch[:0], r.job.Cluster.Disks.WritePort(r.a.node))
	f := r.job.Cluster.Net.System().StartFlow(
		r.immergeName, bytes, ports,
		r.conf.Costs.MergeCPURate,
		func() {
			r.inMemMergeBusy = false
			r.pendingDiskOps--
			if r.dead {
				return
			}
			merged.Spill(path)
			r.onDisk = append(r.onDisk, merged)
			r.job.local(r.a.node).putSegment(path, merged, mapIDs)
			if done != nil {
				done()
			}
			r.checkMergeReady()
		})
	r.portScratch = ports[:0]
	r.addDiskFlow(f)
}

// checkMergeReady starts the final merge passes once the shuffle has
// ended and every outstanding spill has landed.
func (r *reduceExec) checkMergeReady() {
	r.assertDiskOps()
	if r.dead || r.stage != core.StageMerge || r.mergeStarted || r.pendingDiskOps > 0 || r.inMemMergeBusy {
		return
	}
	if len(r.inMem) > 0 {
		// Data delivered after the shuffle-end flush (late spill races):
		// flush it too before merging.
		r.mergeInMemory(nil)
		return
	}
	r.mergeStarted = true
	r.mergePasses()
}

// ---- merge stage ----

func (r *reduceExec) shuffleDone() {
	if r.stage != core.StageShuffle {
		return
	}
	r.stage = core.StageMerge
	r.job.am.reportProgress(r.a, r.progress())
	// Flush any in-memory segments (stock behaviour with
	// reduce.input.buffer.percent = 0: reduce reads from disk), then wait
	// for every outstanding spill before the final merge passes.
	r.mergeInMemory(nil)
	r.checkMergeReady()
}

// segsByLogicalBytes orders merge runs smallest-first without the
// reflection swapper sort.Slice builds on every merge pass.
type segsByLogicalBytes []*merge.Segment

func (s segsByLogicalBytes) Len() int           { return len(s) }
func (s segsByLogicalBytes) Less(i, j int) bool { return s[i].LogicalBytes < s[j].LogicalBytes }
func (s segsByLogicalBytes) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// mergePasses merges on-disk runs down to io.sort.factor before the
// reduce stage — the heavy disk merging FCM exists to avoid.
func (r *reduceExec) mergePasses() {
	if r.dead {
		return
	}
	if len(r.onDisk) <= r.conf.IOSortFactor {
		r.startReduceStage()
		return
	}
	// Merge the io.sort.factor smallest runs (Hadoop's polyphase choice).
	sort.Sort(segsByLogicalBytes(r.onDisk))
	batch := r.onDisk[:r.conf.IOSortFactor]
	rest := append([]*merge.Segment{}, r.onDisk[r.conf.IOSortFactor:]...)
	var bytes int64
	for _, s := range batch {
		bytes += s.LogicalBytes
	}
	if r.mergeNeeded == 0 {
		// Estimate total merge traffic for progress reporting.
		r.mergeNeeded = bytes * int64(1+len(rest)/r.conf.IOSortFactor)
	}
	r.spillSeq++
	path := r.seqPath(r.mergedPrefix, r.spillSeq)
	merged := merge.MergeSegments(path, r.cmp(), batch)
	local := r.job.local(r.a.node)
	mapIDs := make([]int, 0, len(batch))
	for _, sg := range batch {
		mapIDs = append(mapIDs, local.segMaps[sg.Path]...)
	}
	sort.Ints(mapIDs)
	f := r.job.Cluster.Disks.ReadWrite(r.a.node, bytes, func() {
		if r.dead {
			return
		}
		merged.Spill(path)
		local.putSegment(path, merged, mapIDs)
		r.onDisk = append(rest, merged)
		r.mergeDone += bytes
		r.job.am.reportProgress(r.a, r.progress())
		r.mergePasses()
	})
	f.SetPriorityCap(r.conf.Costs.MergeCPURate)
	r.addFlow(f)
}

// ---- reduce stage ----

func (r *reduceExec) startReduceStage() {
	r.finalSegs = append([]*merge.Segment{}, r.onDisk...)
	r.finalSegs = append(r.finalSegs, r.inMem...)
	r.totalLogical = merge.TotalLogicalBytes(r.finalSegs)
	r.totalReal = merge.TotalRealRecords(r.finalSegs)
	r.cursor = merge.NewGroupCursor(r.cmp(), r.grouper(), r.finalSegs, nil)
	if r.skipReal > 0 {
		// HDFS-log restore: credit the previously reduced prefix.
		r.processed = r.restoredLogical
		if r.processed > r.totalLogical {
			r.processed = r.totalLogical
		}
	}
	r.enterReduceLoop()
}

// enterReduceLoop opens the output stream and runs the reduce chunks,
// from the merged runs or from the state a restore rebuilt (cursor,
// processed, output).
func (r *reduceExec) enterReduceLoop() {
	r.stage = core.StageReduce
	// Fast-forward over the prefix a restored HDFS log already covers —
	// no reduce computation, no deserialization charge (the ALG benefit).
	for r.skipReal > 0 && r.realBase+r.cursor.DeliveredRecords() < r.skipReal {
		if _, _, ok := r.cursor.NextGroup(); !ok {
			break
		}
	}
	w, err := r.job.Cluster.DFS.OpenWrite("out/"+r.job.Spec.Name+"/"+r.a.id, r.a.node, r.job.reduceWriteOptions())
	if err != nil {
		r.selfFail("cannot open output stream: " + err.Error())
		return
	}
	r.outWriter = w
	if r.ckptRestoredOutput > 0 {
		// Checkpoint restart discards the previous attempt's uncommitted
		// output file; rewrite the restored prefix.
		w.Append(r.ckptRestoredOutput, nil)
		r.ckptRestoredOutput = 0
	}
	r.job.am.reportProgress(r.a, r.progress())
	r.reduceChunk()
}

// reduceChunk processes one progress quantum of logical bytes: it applies
// the reduce function to whole groups up to the chunk's real-record
// watermark, charges the disk-read+CPU time, streams the output delta to
// HDFS, and recurses.
func (r *reduceExec) reduceChunk() {
	if r.dead {
		return
	}
	if r.processed >= r.totalLogical {
		r.finishReduce()
		return
	}
	chunk := int64(float64(r.totalLogical) * r.conf.ProgressQuantum)
	if chunk < 1 {
		chunk = 1
	}
	if r.processed+chunk > r.totalLogical {
		chunk = r.totalLogical - r.processed
	}
	// Real records to consume by the end of this chunk, proportional to
	// logical progress.
	targetReal := int(float64(r.totalReal) * float64(r.processed+chunk) / float64(r.totalLogical))
	if r.processed+chunk >= r.totalLogical {
		targetReal = r.totalReal
	}
	for r.realBase+r.cursor.DeliveredRecords() < targetReal {
		k, vs, ok := r.cursor.NextGroup()
		if !ok {
			break
		}
		r.job.Spec.Workload.Reduce(k, vs, r.emitFn)
		r.processedGroups++
	}
	outDelta := int64(float64(chunk) * r.job.Spec.Workload.ReduceOutputRatio)
	// Charge: read the chunk from local disk, overlapped with reduce CPU
	// (the flow rate is capped at the CPU rate, so the elapsed time is
	// max(diskTime, cpuTime)).
	ports := append(r.portScratch[:0], r.job.Cluster.Disks.ReadPort(r.a.node))
	f := r.job.Cluster.Net.System().StartFlow(
		r.reduceName, chunk, ports,
		r.conf.Costs.ReduceCPURate,
		func() {
			if r.dead {
				return
			}
			r.processed += chunk
			r.outputLogical += outDelta
			// Window-1 output pipelining: wait for the previous chunks'
			// replication to land before issuing this chunk's append.
			// When the replication pipeline keeps up this is free; when
			// it cannot (wide scopes under contention), the reduce stage
			// stalls — the mechanism behind the paper's Fig. 13.
			r.outWriter.Sync(func() {
				if r.dead {
					return
				}
				r.outWriter.Append(outDelta, nil)
				r.job.am.reportProgress(r.a, r.progress())
				if r.algPending {
					r.snapshotReduce()
				}
				if r.ckptPending {
					r.maybeCheckpoint(r.reduceChunk)
					return
				}
				r.reduceChunk()
			})
		})
	r.portScratch = ports[:0]
	r.addFlow(f)
}

func (r *reduceExec) finishReduce() {
	// Drain any remaining groups (rounding can leave a tail of real
	// records when logical progress hit 100% first).
	for {
		k, vs, ok := r.cursor.NextGroup()
		if !ok {
			break
		}
		r.job.Spec.Workload.Reduce(k, vs, r.emitFn)
		r.processedGroups++
	}
	r.stage = core.StageDone
	r.outWriter.Commit(func(cerr error) {
		if r.dead || !r.job.Cluster.NodeReachable(r.a.node) {
			return
		}
		if cerr != nil {
			// The output never became durable; reporting success here
			// would lose committed reduce output. Fail the attempt.
			r.job.result.Counters.Add("reduce.commit_errors", 1)
			r.job.am.attemptFailed(r.a, "output commit failed: "+cerr.Error())
			return
		}
		r.job.result.Counters.Add("reduce.output.bytes", r.outputLogical)
		r.job.am.reduceFinished(r.t, r.a, reduceOutcome{output: r.output, outputLogical: r.outputLogical, restored: r.restored})
	})
}

func (r *reduceExec) cmp() mr.KeyComparator       { return r.job.Spec.Workload.Cmp() }
func (r *reduceExec) grouper() mr.GroupComparator { return r.job.Spec.Workload.Group() }

// ---- ALG logging ----

func (r *reduceExec) algTick() {
	if r.dead {
		return
	}
	switch r.stage {
	case core.StageShuffle:
		r.snapshotShuffle()
	case core.StageMerge:
		r.writeLocalLog()
	case core.StageReduce:
		r.algPending = true // taken at the next chunk boundary
	case core.StageDone:
		return
	}
	r.rearm(&r.algTimer, r.job.Spec.ALG.Interval, r.algFn)
}

// consumedReal returns total real input records reduced so far, counting
// any restored prefix.
func (r *reduceExec) consumedReal() int {
	if r.cursor == nil {
		return 0
	}
	return r.realBase + r.cursor.DeliveredRecords()
}

// core.ReduceView implementation.
func (r *reduceExec) Stage() core.Stage { return r.stage }

// FetchedMOFs counts the map partitions held in on-disk segments —
// exactly what a restored attempt can reuse. Data still in memory (or
// mid-spill) is deliberately excluded: it dies with the attempt.
func (r *reduceExec) FetchedMOFs() int {
	local := r.job.local(r.a.node)
	n := 0
	for _, sg := range r.onDisk {
		n += len(local.segMaps[sg.Path])
	}
	return n
}

func (r *reduceExec) SegmentPaths() []string {
	segs := r.onDisk
	if r.stage == core.StageReduce {
		segs = r.finalSegs
	}
	out := make([]string, 0, len(segs))
	for _, s := range segs {
		out = append(out, s.Path)
	}
	return out
}
func (r *reduceExec) ReducePositions() []int {
	if r.cursor == nil {
		return nil
	}
	return r.cursor.BoundaryPositions()
}
func (r *reduceExec) ProcessedLogicalBytes() int64 { return r.processed }
func (r *reduceExec) ProcessedRealRecords() int    { return r.consumedReal() }
func (r *reduceExec) ProcessedGroups() int         { return r.processedGroups }
func (r *reduceExec) FlushedOutputLogical() int64 {
	return r.restored.flushedLogical() + r.lastFlushedLogical
}
func (r *reduceExec) FlushedOutputRecords() int {
	return len(r.restored.records) + r.lastFlushedRecords
}

// snapshotShuffle implements ALG's shuffle-stage logging: a temporary
// in-memory merge flushes buffered segments to disk (so the log's segment
// paths cover all fetched data), then the log record is written locally.
func (r *reduceExec) snapshotShuffle() {
	r.mergeInMemory(func() {
		if r.dead || r.stage != core.StageShuffle {
			return
		}
		r.writeLocalLog()
	})
}

// writeLocalLog snapshots the attempt and charges a small local write;
// the record lands in the node-local store when the write does (it
// survives a network stop but not a crash).
func (r *reduceExec) writeLocalLog() *core.LogRecord {
	r.algSeq++
	rec := core.Snapshot(r, r.t.idx, r.a.id, r.algSeq)
	node := r.a.node
	taskIdx := r.t.idx
	f := r.job.Cluster.Disks.Write(node, rec.EstimateSizeBytes(), func() {
		r.job.local(node).putALGLog(taskIdx, r.job.Spec.NumReduces, rec)
	})
	r.addFlow(f)
	r.job.Tracer.Emit(r.job.Eng.Now(), trace.KindLogSnapshot, r.a.id, r.a.nodeName(r.job), rec.Stage.String())
	r.job.result.Counters.Add("alg.snapshots", 1)
	return rec
}

// snapshotReduce runs at a chunk boundary: the output watermark is
// flushed (the HDFS stream is already replicated per the ALG scope; the
// flush marks the watermark durable), the local log is written, and the
// record also goes to HDFS so a migrated attempt can use it.
func (r *reduceExec) snapshotReduce() {
	r.algPending = false
	r.lastFlushedRecords = len(r.output)
	r.lastFlushedLogical = r.outputLogical
	rec := r.writeLocalLog()
	taskIdx := r.t.idx
	c := algCommit{rec: rec, records: r.flushedRecords()}
	_, err := r.job.Cluster.DFS.Write(core.LogPathHDFS(r.job.Spec.Name, taskIdx, r.algSeq), r.a.node,
		rec.EstimateSizeBytes(), r.job.reduceWriteOptions(),
		func(werr error) {
			if werr != nil {
				// The log record never landed on HDFS: a migrated attempt
				// must not restore from it. Silently installing it anyway
				// is the analytics-log loss the paper's Fig. 8 measures.
				r.job.result.Counters.Add("alg.hdfs.log.write_errors", 1)
				return
			}
			if rec.Newer(r.job.algCommits[taskIdx].rec) {
				r.job.algCommits[taskIdx] = c
			}
		})
	if err == nil {
		r.job.result.Counters.Add("alg.hdfs.log.writes", 1)
	}
}

// flushedRecords returns the whole flushed prefix — the inherited
// records, if any, then output[:lastFlushedRecords] — as a capped view
// that later appends cannot change. Without an inherited prefix it is a
// view of output; otherwise flushedBuf copies the inherited records once
// per attempt and each output record once, as it is first flushed.
func (r *reduceExec) flushedRecords() []mr.Record {
	n := r.lastFlushedRecords
	inherited := r.restored.records
	if r.restored.rec == nil {
		return r.output[:n:n]
	}
	if r.flushedBuf == nil {
		r.flushedBuf = append(make([]mr.Record, 0, len(inherited)+n), inherited...)
	}
	done := len(r.flushedBuf) - len(inherited)
	r.flushedBuf = append(r.flushedBuf, r.output[done:n]...)
	return r.flushedBuf[:len(r.flushedBuf):len(r.flushedBuf)]
}

// ---- ALG restore paths ----

// tryLocalRestore replays the latest local log record when this attempt
// runs on the node that wrote it and the referenced segments survive.
// A shuffle- or merge-stage record, and a reduce-stage record with no
// committed snapshot, restore the record's segments as onDisk and mark
// copied exactly the maps those segments hold (their node-local
// segMaps), so every other map is fetched again.
func (r *reduceExec) tryLocalRestore() bool {
	local := r.job.local(r.a.node)
	rec := local.algLog(r.t.idx)
	if rec == nil || rec.Validate() != nil {
		return false
	}
	lookup := func(paths []string) ([]*merge.Segment, bool) {
		segs := make([]*merge.Segment, 0, len(paths))
		for _, p := range paths {
			s, ok := local.segments[p]
			if !ok {
				return nil, false
			}
			segs = append(segs, s)
		}
		return segs, true
	}
	restoreShuffled := func() bool {
		segs, ok := lookup(rec.SegmentPaths)
		if !ok {
			return false
		}
		r.onDisk = segs
		var held []int
		for _, s := range segs {
			held = append(held, local.segMaps[s.Path]...)
		}
		sort.Ints(held)
		for _, m := range held {
			r.markCopied(m)
		}
		return true
	}
	restored := false
	switch rec.Stage {
	case core.StageShuffle, core.StageMerge:
		restored = restoreShuffled()
	case core.StageReduce:
		// Resume the MPQ from the committed snapshot so the flushed
		// output prefix and the cursor position agree exactly.
		c := r.job.algCommits[r.t.idx]
		if c.rec == nil {
			// No committed reduce snapshot: fall back to reusing the
			// shuffled segments and redoing the reduce stage from zero.
			restored = restoreShuffled()
			break
		}
		segs, ok := lookup(c.rec.SegmentPaths)
		if !ok {
			return false
		}
		r.finalSegs = segs
		r.totalLogical = merge.TotalLogicalBytes(segs)
		r.totalReal = merge.TotalRealRecords(segs)
		r.cursor = merge.NewGroupCursor(r.cmp(), r.grouper(), segs, c.rec.Positions)
		r.processed = c.rec.ProcessedLogicalBytes
		r.realBase = c.rec.ProcessedRealRecords
		r.restored = c
		r.stage = core.StageReduce
		restored = true
	}
	if !restored {
		return false
	}
	r.algSeq = rec.Seq
	r.job.Tracer.Emit(r.job.Eng.Now(), trace.KindLogRestored, r.a.id, r.a.nodeName(r.job), "local:"+rec.Stage.String())
	r.job.result.Counters.Add("alg.restores.local", 1)
	return true
}

// tryHDFSRestore uses the reduce-stage log stored on HDFS when migrating
// to a different node: the shuffle and merge must be redone (the local
// intermediate data died with the node), but the already-reduced prefix —
// whose output is safely flushed — is skipped, avoiding its
// deserialization and reduce computation.
func (r *reduceExec) tryHDFSRestore() bool {
	c := r.job.algCommits[r.t.idx]
	if c.rec == nil {
		return false
	}
	r.skipReal = c.rec.ProcessedRealRecords
	r.restoredLogical = c.rec.ProcessedLogicalBytes
	r.restored = c
	r.job.Tracer.Emit(r.job.Eng.Now(), trace.KindLogRestored, r.a.id, r.a.nodeName(r.job), "hdfs:reduce")
	r.job.result.Counters.Add("alg.restores.hdfs", 1)
	return true
}

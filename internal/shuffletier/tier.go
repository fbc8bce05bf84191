// Package shuffletier models a push-based remote shuffle service: map
// attempts push their partition segments to a small replicated set of
// shuffle-tier nodes, and reducers fetch from the tier instead of from
// map hosts — the FuxiShuffle-style production answer to the paper's
// spatial failure amplification (losing a map node after its outputs
// reached the tier invalidates nothing). The tier brings its own fault
// domain: tier-service crashes (stored segments lost; recovered by
// re-replication from a surviving replica, re-push from the producing
// map node, and only as a last resort a map rerun), hot partitions
// (served away from the overloaded replica, with the physical
// contention modeled through simdisk), and backpressure (bounded
// per-node ingest admission whose queues stall mappers and surface
// wait advisories).
package shuffletier

import (
	"strconv"

	"alm/internal/cluster"
	"alm/internal/fairshare"
	"alm/internal/metrics"
	"alm/internal/sim"
	"alm/internal/topology"
	"alm/internal/trace"
)

// Options sizes the tier. The zero value is not usable; call Defaulted.
type Options struct {
	// TierNodes is how many topology nodes host the shuffle service
	// (spread round-robin across racks, taken from the tail of each rack
	// so low node indices keep their usual task-placement roles).
	TierNodes int
	// Replication is how many tier nodes store each partition segment.
	Replication int
	// MaxInflight bounds concurrent ingest flows per tier node; pushes
	// beyond it queue FIFO.
	MaxInflight int
	// MaxQueue is the queue depth at which the tier starts signalling
	// backpressure to mappers (the queue itself is not truncated — the
	// simulation models the stall, not data loss).
	MaxQueue int
	// HotFactor flags a tier node as a hot spot when its cumulative
	// ingest exceeds HotFactor × the mean of the other tier nodes (and a
	// minimum volume); fetches then prefer its peers. Zero means 3; a
	// negative value disables organic detection.
	HotFactor float64
}

// Defaulted fills zero fields with the stock tier geometry.
func (o Options) Defaulted() Options {
	if o.TierNodes <= 0 {
		o.TierNodes = 3
	}
	if o.Replication <= 0 {
		o.Replication = 2
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 8
	}
	if o.HotFactor == 0 {
		o.HotFactor = 3
	}
	return o
}

// hotMinBytes is the minimum cumulative ingest before organic hot-spot
// detection may trigger (keeps tiny early skews from flagging).
const hotMinBytes int64 = 64 << 20

type flowKind uint8

const (
	ingestFlow  flowKind = iota // map node → tier node (initial push)
	repushFlow                  // map node → tier node (repair after tier loss)
	replicaFlow                 // tier node → tier node (redundancy restore)
)

// pushReq is one tier-bound transfer: a composite initial push (several
// partitions bound for the same tier node) or a single-segment repair.
type pushReq struct {
	kind   flowKind
	m      int   // producing map index
	parts  []int // partitions carried
	bytes  int64
	ord    int // destination tier ordinal
	src    topology.NodeID
	srcOrd int // replicaFlow source ordinal

	srcNode  topology.NodeID // resolved read-side node (for cancellation)
	queued   bool
	queuedAt sim.Time
	flow     fairshare.Flow
}

// tierNode is the shuffle service instance on one topology node.
type tierNode struct {
	id   topology.NodeID
	name string
	// alive is service-process liveness: false after CrashOrdinal until
	// RestoreOrdinal. Distinct from topology-node liveness — a tier
	// service can crash (losing its storage) on a healthy node.
	alive    bool
	hot      bool
	inflight int
	// queue holds the transfers waiting for an ingest slot, FIFO from
	// qhead (push, pop).
	queue    []*pushReq
	qhead    int
	ingested int64 // cumulative accepted bytes (hot detection + metrics)
}

// queueLen is the number of transfers waiting for an ingest slot.
func (tn *tierNode) queueLen() int { return len(tn.queue) - tn.qhead }

// push appends req to the queue. A full slice moves the waiting
// transfers to the front when at least half of it is spent, and grows
// otherwise, so a push costs amortized O(1).
func (tn *tierNode) push(req *pushReq) {
	if h := tn.qhead; h > 0 && h >= len(tn.queue)/2 && len(tn.queue) == cap(tn.queue) {
		n := copy(tn.queue, tn.queue[h:])
		clear(tn.queue[n:])
		tn.queue, tn.qhead = tn.queue[:n], 0
	}
	tn.queue = append(tn.queue, req)
}

// pop removes and returns the oldest waiting transfer.
func (tn *tierNode) pop() *pushReq {
	req := tn.queue[tn.qhead]
	tn.queue[tn.qhead] = nil
	tn.qhead++
	if tn.qhead == len(tn.queue) {
		tn.queue, tn.qhead = tn.queue[:0], 0
	}
	return req
}

// mapState is the tier's view of one map task's output.
type mapState struct {
	src       topology.NodeID
	srcLost   bool // producing node's local copy destroyed (crash)
	committed bool
	partBytes []int64
	// stored[r] is a bitmask over tier ordinals holding partition r.
	stored []uint64
	// delivered[r] means the current reduce attempt for partition r has
	// fetched this segment — a subsequent tier loss of it creates no
	// repair obligation. Reset when the reduce attempt restarts.
	delivered []bool
	// covering[r] counts the transfers carrying partition r that are
	// active or queued, so covered reads one entry instead of walking
	// active and every queue.
	covering       []int32
	rerunRequested bool
	onCommit       func()
}

// Tier is the remote shuffle service over one cluster.
type Tier struct {
	cl  *cluster.Cluster
	eng *sim.Engine
	sys *fairshare.System
	tr  *trace.Collector
	opt Options

	numParts int
	nodes    []*tierNode
	maps     []*mapState // indexed by map task, grown on demand
	hotPart  []bool      // per partition, fault-injected hot marking
	active   []*pushReq
	closed   bool

	pushBytes   int64
	replBytes   int64
	repushBytes int64

	// OnChange fires when the serve mapping may have shifted, with the
	// scope of the shift: ServeNode(m, r) can have changed only for map m
	// and partitions r in parts (parts == nil: every partition of m). m < 0
	// means any map may have moved — the rare global changes (tier node
	// crashed/restored/healed, hot flag flipped). A storage gain on a
	// committed map reports exactly its map and partitions, so the engine
	// re-indexes only the reducer fetch plans it touches. Reachability
	// down-flips do not fire OnChange: cluster reachability listeners see
	// those directly.
	OnChange func(m int, parts []int)
	// OnBackpressure fires when a tier node's ingest queue reaches
	// MaxQueue — the engine turns it into a mapper wait advisory.
	OnBackpressure func(ord, depth int)
	// OnRerunNeeded fires when a lost segment has neither a surviving
	// replica nor a reachable producing node: only a map rerun can
	// regenerate it.
	OnRerunNeeded func(mapIdx int)

	mIngest []*metrics.Counter
	mQueue  []*metrics.Gauge
	mRepl   *metrics.Counter
	mRepush *metrics.Counter
	mStall  *metrics.Histogram

	portScratch []*fairshare.Port
}

// New builds a tier over the cluster for jobs with numParts reduce
// partitions. Tier nodes are chosen deterministically: round-robin over
// racks, taking nodes from the tail of each rack. The tier subscribes
// to cluster reachability transitions to cancel stalled flows and
// re-route pushes.
func New(cl *cluster.Cluster, tr *trace.Collector, numParts int, opt Options) *Tier {
	opt = opt.Defaulted()
	if n := cl.Topo.NumNodes(); opt.TierNodes > n {
		opt.TierNodes = n
	}
	if opt.TierNodes > 64 {
		opt.TierNodes = 64 // stored[] is a bitmask over ordinals
	}
	if opt.Replication > opt.TierNodes {
		opt.Replication = opt.TierNodes
	}
	t := &Tier{
		cl:       cl,
		eng:      cl.Eng,
		sys:      cl.Net.System(),
		tr:       tr,
		opt:      opt,
		numParts: numParts,
		hotPart:  make([]bool, numParts),
		mIngest:  make([]*metrics.Counter, opt.TierNodes),
		mQueue:   make([]*metrics.Gauge, opt.TierNodes),
	}
	racks := cl.Topo.NumRacks()
	taken := make([]int, racks)
	for i := 0; i < opt.TierNodes; i++ {
		rk := i % racks
		rn := cl.Topo.RackNodes(rk)
		id := rn[len(rn)-1-taken[rk]%len(rn)]
		taken[rk]++
		t.nodes = append(t.nodes, &tierNode{
			id:    id,
			name:  cl.Topo.Node(id).Name,
			alive: true,
		})
	}
	cl.AddReachabilityListener(t.onReachability)
	return t
}

// SetMetrics attaches instrumentation: per-tier-node ingest bytes and
// queue depth, replication/re-push traffic, backpressure stall times.
func (t *Tier) SetMetrics(reg *metrics.Registry) {
	for o, tn := range t.nodes {
		t.mIngest[o] = reg.Counter("alm_tier_ingest_bytes_total", "node", tn.name)
		t.mQueue[o] = reg.Gauge("alm_tier_queue_depth", "node", tn.name)
	}
	t.mRepl = reg.Counter("alm_tier_replication_bytes_total")
	t.mRepush = reg.Counter("alm_tier_repush_bytes_total")
	t.mStall = reg.Histogram("alm_tier_backpressure_stall_seconds",
		[]float64{0.5, 1, 2, 5, 10, 30, 60, 120})
}

// Close detaches the tier at job end: outstanding flows are canceled and
// cluster callbacks become no-ops (the cluster outlives the job in
// multi-job runs and listeners cannot be unregistered).
func (t *Tier) Close() {
	if t.closed {
		return
	}
	t.cancelFlows(func(*pushReq) bool { return true })
	t.closed = true
}

// ---- geometry accessors ----

// Size is the number of tier nodes.
func (t *Tier) Size() int { return len(t.nodes) }

// Nodes lists the topology nodes hosting the tier, in ordinal order.
func (t *Tier) Nodes() []topology.NodeID {
	ids := make([]topology.NodeID, len(t.nodes))
	for o, tn := range t.nodes {
		ids[o] = tn.id
	}
	return ids
}

// PrimaryNode is the topology node of partition r's primary replica.
func (t *Tier) PrimaryNode(r int) topology.NodeID {
	return t.nodes[r%len(t.nodes)].id
}

// PushBytes is the cumulative initial-push volume accepted by the tier.
func (t *Tier) PushBytes() int64 { return t.pushBytes }

// ReplicationBytes is cumulative tier-to-tier redundancy-restore volume.
func (t *Tier) ReplicationBytes() int64 { return t.replBytes }

// RepushBytes is cumulative map-to-tier repair volume after tier loss.
func (t *Tier) RepushBytes() int64 { return t.repushBytes }

func (t *Tier) mapAt(m int) *mapState {
	if m < 0 || m >= len(t.maps) {
		return nil
	}
	return t.maps[m]
}

func (t *Tier) ensureMap(m int) *mapState {
	for len(t.maps) <= m {
		t.maps = append(t.maps, nil)
	}
	if t.maps[m] == nil {
		t.maps[m] = &mapState{
			stored:    make([]uint64, t.numParts),
			delivered: make([]bool, t.numParts),
			covering:  make([]int32, t.numParts),
		}
	}
	return t.maps[m]
}

// ordinalUsable reports whether new segments can be sent to ordinal o
// right now: service up, node process alive, network reachable.
func (t *Tier) ordinalUsable(o int) bool {
	tn := t.nodes[o]
	return tn.alive && t.cl.NodeAlive(tn.id) && t.cl.NodeReachable(tn.id)
}

// ---- push path ----

// Push ingests one map attempt's partition segments: each partition is
// sent to Replication tier nodes (assignment (r+k) mod TierNodes),
// batched into one composite flow per destination. onCommit fires
// (async) once every partition has at least one stored replica — the
// map's commit point. A re-push after a map rerun skips partitions that
// still have live replicas.
func (t *Tier) Push(m int, src topology.NodeID, partBytes []int64, onCommit func()) {
	ms := t.ensureMap(m)
	ms.src = src
	ms.srcLost = false
	ms.rerunRequested = false
	ms.onCommit = onCommit
	// committed is deliberately NOT reset on a rerun's re-push: partitions
	// that still have live replicas keep serving while the lost ones
	// refill; maybeCommit re-fires once the map is whole again.
	ms.partBytes = append(ms.partBytes[:0], partBytes...)
	covers := make([][]int, len(t.nodes))
	for r := 0; r < t.numParts; r++ {
		if ms.stored[r] != 0 {
			continue
		}
		placed := 0
		for k := 0; k < len(t.nodes) && placed < t.opt.Replication; k++ {
			o := (r + k) % len(t.nodes)
			if !t.ordinalUsable(o) {
				continue
			}
			covers[o] = append(covers[o], r)
			placed++
		}
		// placed == 0 parks the partition: a later heal triggers
		// reconcile, which re-routes it.
	}
	for o, parts := range covers {
		if len(parts) == 0 {
			continue
		}
		t.submit(&pushReq{kind: ingestFlow, m: m, parts: parts, ord: o, src: src})
	}
	t.maybeCommit(m, ms)
}

// submit admits a transfer to its destination tier node, queueing when
// the node's ingest slots are full and signalling backpressure when the
// queue crosses MaxQueue.
func (t *Tier) submit(req *pushReq) {
	var sum int64
	for _, r := range req.parts {
		sum += t.maps[req.m].partBytes[r]
	}
	req.bytes = sum
	t.cover(req, 1)
	tn := t.nodes[req.ord]
	if tn.inflight < t.opt.MaxInflight {
		t.start(req)
		return
	}
	req.queued = true
	req.queuedAt = t.eng.Now()
	tn.push(req)
	t.mQueue[req.ord].Set(float64(tn.queueLen()))
	if tn.queueLen() >= t.opt.MaxQueue {
		t.tr.Emit(t.eng.Now(), trace.KindTierBackpressure, "", tn.name, "ingest queue full")
		if t.OnBackpressure != nil {
			t.OnBackpressure(req.ord, tn.queueLen())
		}
	}
}

// start launches the fairshare flow for an admitted transfer: source
// disk read, the network path, and the tier node's disk write.
func (t *Tier) start(req *pushReq) {
	tn := t.nodes[req.ord]
	tn.inflight++
	src := req.src
	if req.kind == replicaFlow {
		src = t.nodes[req.srcOrd].id
	}
	req.srcNode = src
	ports := append(t.portScratch[:0], t.cl.Disks.ReadPort(src))
	ports = t.cl.Net.AppendPortsFor(ports, src, tn.id)
	ports = append(ports, t.cl.Disks.WritePort(tn.id))
	t.portScratch = ports[:0]
	req.flow = t.sys.StartFlow(flowName(req), req.bytes, ports, 0, func() { t.flowDone(req) })
	t.active = append(t.active, req)
}

// flowName renders a transfer's debug name without fmt.
func flowName(req *pushReq) string {
	b := make([]byte, 0, 24)
	switch req.kind {
	case ingestFlow:
		b = append(b, "tierpush:m"...)
	case repushFlow:
		b = append(b, "tierfix:m"...)
	case replicaFlow:
		b = append(b, "tierrepl:m"...)
	}
	b = strconv.AppendInt(b, int64(req.m), 10)
	b = append(b, '>', 't')
	b = strconv.AppendInt(b, int64(req.ord), 10)
	return string(b)
}

// flowDone credits a completed transfer: segments become stored, the
// map may commit, and a freed ingest slot admits the next queued push.
func (t *Tier) flowDone(req *pushReq) {
	t.removeActive(req)
	tn := t.nodes[req.ord]
	tn.inflight--
	t.drainQueue(tn)
	if t.closed {
		return
	}
	ms := t.maps[req.m]
	bit := uint64(1) << uint(req.ord)
	for _, r := range req.parts {
		ms.stored[r] |= bit
	}
	switch req.kind {
	case ingestFlow:
		t.pushBytes += req.bytes
		tn.ingested += req.bytes
		t.mIngest[req.ord].Add(float64(req.bytes))
		t.checkHot(tn)
	case replicaFlow:
		t.replBytes += req.bytes
		t.mRepl.Add(float64(req.bytes))
		t.tr.Emit(t.eng.Now(), trace.KindTierReplicated, "", tn.name, segDetail("re-replicated", req.m, req.parts[0]))
	case repushFlow:
		t.repushBytes += req.bytes
		t.mRepush.Add(float64(req.bytes))
		t.tr.Emit(t.eng.Now(), trace.KindTierRepush, "", tn.name, segDetail("re-pushed", req.m, req.parts[0]))
	}
	wasCommitted := ms.committed
	t.maybeCommit(req.m, ms)
	if ms.committed && t.OnChange != nil {
		if wasCommitted {
			t.OnChange(req.m, req.parts)
		} else {
			t.OnChange(req.m, nil) // the commit made every partition servable
		}
	}
}

// segDetail renders "verb map M part R" without fmt.
func segDetail(verb string, m, r int) string {
	b := make([]byte, 0, 32)
	b = append(b, verb...)
	b = append(b, " map "...)
	b = strconv.AppendInt(b, int64(m), 10)
	b = append(b, " part "...)
	b = strconv.AppendInt(b, int64(r), 10)
	return string(b)
}

// drainQueue starts queued pushes while ingest slots are free, charging
// each one's queueing delay to the stall histogram.
func (t *Tier) drainQueue(tn *tierNode) {
	for tn.inflight < t.opt.MaxInflight && tn.queueLen() > 0 {
		req := tn.pop()
		req.queued = false
		t.mStall.Observe((t.eng.Now() - req.queuedAt).Seconds())
		t.start(req)
	}
	for o, n := range t.nodes {
		if n == tn {
			t.mQueue[o].Set(float64(tn.queueLen()))
		}
	}
}

// maybeCommit fires the map's commit callback once every partition has
// at least one stored replica. The callback runs async so commit never
// re-enters a push or flow-completion stack frame. A rerun's re-push
// re-fires through the same path (committed stays true throughout; only
// the pending callback gates the re-check).
func (t *Tier) maybeCommit(m int, ms *mapState) {
	if ms.partBytes == nil || (ms.committed && ms.onCommit == nil) {
		return
	}
	for r := 0; r < t.numParts; r++ {
		if ms.stored[r] == 0 {
			return
		}
	}
	ms.committed = true
	t.tr.Emit(t.eng.Now(), trace.KindTierCommitted, "", "", segDetail("all partitions stored,", m, t.numParts-1))
	if cb := ms.onCommit; cb != nil {
		ms.onCommit = nil
		t.eng.Post(0, cb)
	}
	t.reconcileMap(m, ms) // restore redundancy if the push ran degraded
}

// checkHot runs organic hot-spot detection after an ingest: a tier node
// whose cumulative ingest dwarfs its peers gets flagged, and fetches
// prefer its replicas' peers from then on.
func (t *Tier) checkHot(tn *tierNode) {
	if tn.hot || t.opt.HotFactor <= 0 || len(t.nodes) < 2 || tn.ingested < hotMinBytes {
		return
	}
	var others int64
	for _, n := range t.nodes {
		if n != tn {
			others += n.ingested
		}
	}
	mean := float64(others) / float64(len(t.nodes)-1)
	if float64(tn.ingested) >= t.opt.HotFactor*mean {
		tn.hot = true
		t.tr.Emit(t.eng.Now(), trace.KindTierHotPartition, "", tn.name, "ingest hot spot detected")
		if t.OnChange != nil {
			t.OnChange(-1, nil)
		}
	}
}

// ---- fetch path ----

// ServeNode picks the tier node reducer r should fetch map m's segment
// from: the first replica in assignment order that is stored, alive and
// reachable, preferring replicas not flagged hot. Pure in tier state —
// every mutation that could change the answer fires OnChange with a
// scope covering (m, r), except reachability down-flips, which cluster
// reachability listeners observe directly; cached fetch indexes that
// follow both stay consistent.
func (t *Tier) ServeNode(m, r int) (topology.NodeID, bool) {
	ms := t.mapAt(m)
	if ms == nil || !ms.committed || r < 0 || r >= t.numParts {
		return topology.Invalid, false
	}
	n := len(t.nodes)
	best := -1
	bestHot := false
	for k := 0; k < n; k++ {
		o := (r + k) % n
		tn := t.nodes[o]
		if ms.stored[r]&(1<<uint(o)) == 0 || !tn.alive || !t.cl.NodeReachable(tn.id) {
			continue
		}
		hot := tn.hot || (t.hotPart[r] && k == 0)
		if best < 0 {
			best, bestHot = o, hot
		} else if bestHot && !hot {
			best, bestHot = o, hot
		}
		if !bestHot {
			break
		}
	}
	if best < 0 {
		return topology.Invalid, false
	}
	return t.nodes[best].id, true
}

// ServableFor reports whether reducer r can fetch map m's segment now.
func (t *Tier) ServableFor(m, r int) bool {
	_, ok := t.ServeNode(m, r)
	return ok
}

// FullyServable reports whether every partition of map m has a live
// reachable replica — the tier-mode notion of "MOF available".
func (t *Tier) FullyServable(m int) bool {
	ms := t.mapAt(m)
	if ms == nil || !ms.committed {
		return false
	}
	for r := 0; r < t.numParts; r++ {
		if !t.ServableFor(m, r) {
			return false
		}
	}
	return true
}

// Recovering reports whether segments of a pushed map are currently
// lost (no stored replica) and undelivered — the tier is repairing them
// (re-replication, re-push, or a requested rerun), so reducers should
// wait instead of striking the map.
func (t *Tier) Recovering(m int) bool {
	ms := t.mapAt(m)
	if ms == nil || ms.partBytes == nil {
		return false
	}
	for r := 0; r < t.numParts; r++ {
		if ms.stored[r] == 0 && !ms.delivered[r] {
			return true
		}
	}
	return false
}

// PendingRecovery counts committed, undelivered segments with no stored
// replica anywhere — each is an open repair obligation. The chaos
// harness asserts this is zero at job completion: every tier loss was
// re-replicated, re-pushed, or regenerated before the job finished.
func (t *Tier) PendingRecovery() int {
	n := 0
	for _, ms := range t.maps {
		if ms == nil || !ms.committed {
			continue
		}
		for r := 0; r < t.numParts; r++ {
			if ms.stored[r] == 0 && !ms.delivered[r] {
				n++
			}
		}
	}
	return n
}

// MarkDelivered records that reducer r fetched map m's segment; losing
// it later costs nothing (the current reduce attempt holds the data).
// It reports whether Recovering(m) may have changed: the segment was not
// marked yet and has no stored replica.
func (t *Tier) MarkDelivered(m, r int) bool {
	ms := t.mapAt(m)
	if ms == nil || r < 0 || r >= t.numParts || ms.delivered[r] {
		return false
	}
	ms.delivered[r] = true
	return ms.stored[r] == 0
}

// ResetDelivered forgets delivery state for partition r — called when a
// new reduce attempt for r starts, since it must refetch everything.
// Lost segments become repair obligations again.
func (t *Tier) ResetDelivered(r int) {
	if t.closed || r < 0 || r >= t.numParts {
		return
	}
	flipped := false
	for _, ms := range t.maps {
		if ms != nil && ms.delivered[r] {
			ms.delivered[r] = false
			flipped = true
		}
	}
	if flipped {
		t.reconcile()
	}
}

// ---- fault domain ----

// CrashOrdinal kills the shuffle service on tier ordinal o: its stored
// segments are gone, in-flight transfers touching it are canceled, and
// repair (re-replication / re-push / rerun request) starts immediately.
func (t *Tier) CrashOrdinal(o int) {
	if t.closed || o < 0 || o >= len(t.nodes) {
		return
	}
	tn := t.nodes[o]
	if !tn.alive {
		return
	}
	tn.alive = false
	tn.hot = false
	tn.ingested = 0
	lost := 0
	bit := uint64(1) << uint(o)
	for _, ms := range t.maps {
		if ms == nil {
			continue
		}
		for r := range ms.stored {
			if ms.stored[r]&bit != 0 {
				ms.stored[r] &^= bit
				lost++
			}
		}
	}
	t.cancelFlows(func(req *pushReq) bool {
		return req.ord == o || (req.kind == replicaFlow && req.srcOrd == o)
	})
	t.tr.Emit(t.eng.Now(), trace.KindTierNodeLost, "", tn.name, segDetail("tier service crashed, segments lost:", lost, t.numParts-1))
	t.reconcile()
	if t.OnChange != nil {
		t.OnChange(-1, nil)
	}
}

// RestoreOrdinal restarts a crashed tier service empty: it accepts new
// segments (redundancy repairs re-fill it) but serves nothing yet.
func (t *Tier) RestoreOrdinal(o int) {
	if t.closed || o < 0 || o >= len(t.nodes) {
		return
	}
	tn := t.nodes[o]
	if tn.alive {
		return
	}
	tn.alive = true
	t.tr.Emit(t.eng.Now(), trace.KindNodeHealed, "", tn.name, "tier service restored (empty)")
	t.reconcile()
	if t.OnChange != nil {
		t.OnChange(-1, nil)
	}
}

// MarkHotPartition flags partition r as hot (fault injection): fetches
// shift off its primary replica. The engine pairs this with a simdisk
// degrade on the primary to model the physical contention.
func (t *Tier) MarkHotPartition(r int, on bool) {
	if t.closed || r < 0 || r >= t.numParts || t.hotPart[r] == on {
		return
	}
	t.hotPart[r] = on
	if on {
		t.tr.Emit(t.eng.Now(), trace.KindTierHotPartition, "", t.cl.Topo.Node(t.PrimaryNode(r)).Name,
			segDetail("hot partition injected,", 0, r))
	}
	if t.OnChange != nil {
		t.OnChange(-1, nil)
	}
}

// NodeCrashed tells the tier a topology node's process died: any tier
// service it hosted is gone with its storage, and maps produced there
// can no longer re-push (their local MOF copies were wiped).
func (t *Tier) NodeCrashed(id topology.NodeID) {
	if t.closed {
		return
	}
	for _, ms := range t.maps {
		if ms != nil && ms.src == id {
			ms.srcLost = true
		}
	}
	t.cancelFlows(func(req *pushReq) bool {
		return req.srcNode == id || (req.queued && req.kind != replicaFlow && req.src == id)
	})
	for o, tn := range t.nodes {
		if tn.id == id {
			t.CrashOrdinal(o)
		}
	}
	t.reconcile()
}

// onReachability is the cluster hook: flows touching an unreachable
// node are canceled (they would stall forever) and pushes re-route;
// a heal re-admits the node and retries parked work.
func (t *Tier) onReachability(id topology.NodeID, up bool) {
	if t.closed {
		return
	}
	if !up {
		t.cancelFlows(func(req *pushReq) bool {
			return req.srcNode == id || t.nodes[req.ord].id == id ||
				(req.queued && req.kind != replicaFlow && req.src == id)
		})
	}
	t.reconcile()
	if up && t.OnChange != nil {
		t.OnChange(-1, nil)
	}
}

// cancelFlows cancels active flows and drops queued requests matching
// the predicate, then refills freed ingest slots.
func (t *Tier) cancelFlows(match func(*pushReq) bool) {
	for i := 0; i < len(t.active); {
		req := t.active[i]
		if !match(req) {
			i++
			continue
		}
		req.flow.Cancel()
		copy(t.active[i:], t.active[i+1:])
		t.active[len(t.active)-1] = nil
		t.active = t.active[:len(t.active)-1]
		t.cover(req, -1)
		t.nodes[req.ord].inflight--
	}
	for o, tn := range t.nodes {
		kept := tn.queue[:0]
		for _, req := range tn.queue[tn.qhead:] {
			if match(req) {
				t.cover(req, -1)
				continue
			}
			kept = append(kept, req)
		}
		clear(tn.queue[len(kept):])
		tn.queue, tn.qhead = kept, 0
		t.mQueue[o].Set(float64(tn.queueLen()))
		t.drainQueue(tn)
	}
}

func (t *Tier) removeActive(req *pushReq) {
	for i, r := range t.active {
		if r == req {
			copy(t.active[i:], t.active[i+1:])
			t.active[len(t.active)-1] = nil
			t.active = t.active[:len(t.active)-1]
			t.cover(req, -1)
			return
		}
	}
}

// cover adds d to the coverage count of every (map, partition) req
// carries: +1 when it is submitted (active or queued), -1 when it
// leaves both (its flow lands or it is canceled).
func (t *Tier) cover(req *pushReq, d int32) {
	c := t.maps[req.m].covering
	for _, r := range req.parts {
		c[r] += d
	}
}

// checksEnabled arms the tier's internal cross-checks (EnableChecks).
var checksEnabled = false

// EnableChecks arms the tier's internal consistency checks: covered is
// compared with a walk over every active and queued transfer. The
// engine's EnableInvariantChecks calls it, and the package's tests arm
// it in an init. The checks panic on a violation.
func EnableChecks() { checksEnabled = true }

// covered reports whether some active or queued transfer already
// carries (m, r) — the duplicate-repair guard.
func (t *Tier) covered(m, r int) bool {
	c := t.maps[m].covering[r] > 0
	if checksEnabled && c != t.coveredWalk(m, r) {
		panic("shuffletier: coverage count of map " + strconv.Itoa(m) + " partition " + strconv.Itoa(r) +
			" disagrees with the active and queued transfers")
	}
	return c
}

// coveredWalk answers covered by walking the active transfers and every
// queue: the checked builds' oracle.
func (t *Tier) coveredWalk(m, r int) bool {
	for _, req := range t.active {
		if req.m == m && containsPart(req.parts, r) {
			return true
		}
	}
	for _, tn := range t.nodes {
		for _, req := range tn.queue[tn.qhead:] {
			if req.m == m && containsPart(req.parts, r) {
				return true
			}
		}
	}
	return false
}

func containsPart(parts []int, r int) bool {
	for _, p := range parts {
		if p == r {
			return true
		}
	}
	return false
}

// aliveReplicas counts stored replicas of (m→ms, r) on live services.
func (t *Tier) aliveReplicas(ms *mapState, r int) int {
	n := 0
	for o, tn := range t.nodes {
		if tn.alive && ms.stored[r]&(1<<uint(o)) != 0 {
			n++
		}
	}
	return n
}

// reconcile sweeps every map after a disruptive event (crash, heal,
// cancellation) and restarts whatever transfers the new cluster state
// calls for: re-routed initial pushes, redundancy restores, re-pushes,
// or rerun requests.
func (t *Tier) reconcile() {
	if t.closed {
		return
	}
	for m, ms := range t.maps {
		if ms == nil || ms.partBytes == nil {
			continue
		}
		t.reconcileMap(m, ms)
	}
}

func (t *Tier) reconcileMap(m int, ms *mapState) {
	for r := 0; r < t.numParts; r++ {
		if ms.stored[r] != 0 {
			if ms.committed && t.aliveReplicas(ms, r) < t.opt.Replication && !t.covered(m, r) {
				t.startRepair(m, ms, r, true)
			}
			continue
		}
		if t.covered(m, r) {
			continue
		}
		if !ms.committed {
			// The initial push lost its flow (ordinal crashed or link
			// went dark): re-route from the producing node when it is
			// still reachable; otherwise its attempt dies on its own.
			if !ms.srcLost && t.cl.NodeReachable(ms.src) {
				t.submitSingle(m, ms, r, ingestFlow, -1)
			}
			continue
		}
		if ms.delivered[r] {
			continue // reducer holds the data; nothing to repair
		}
		if !ms.srcLost && t.cl.NodeReachable(ms.src) {
			t.startRepair(m, ms, r, false)
		} else if !ms.rerunRequested {
			ms.rerunRequested = true
			if t.OnRerunNeeded != nil {
				t.OnRerunNeeded(m)
			}
		}
	}
}

// startRepair restores (m, r): a tier-to-tier copy from a surviving
// replica when fromTier, else a re-push from the producing map node.
// No-ops (retried at the next reconcile) when no destination or source
// is currently usable.
func (t *Tier) startRepair(m int, ms *mapState, r int, fromTier bool) {
	if fromTier {
		srcOrd := -1
		for k := 0; k < len(t.nodes); k++ {
			o := (r + k) % len(t.nodes)
			tn := t.nodes[o]
			if tn.alive && ms.stored[r]&(1<<uint(o)) != 0 && t.cl.NodeReachable(tn.id) {
				srcOrd = o
				break
			}
		}
		if srcOrd < 0 {
			return
		}
		t.submitSingle(m, ms, r, replicaFlow, srcOrd)
		return
	}
	t.submitSingle(m, ms, r, repushFlow, -1)
}

// submitSingle routes one segment to the first usable ordinal that does
// not already store it.
func (t *Tier) submitSingle(m int, ms *mapState, r int, kind flowKind, srcOrd int) {
	dst := -1
	for k := 0; k < len(t.nodes); k++ {
		o := (r + k) % len(t.nodes)
		if ms.stored[r]&(1<<uint(o)) != 0 || !t.ordinalUsable(o) || (kind == replicaFlow && o == srcOrd) {
			continue
		}
		dst = o
		break
	}
	if dst < 0 {
		return
	}
	t.submit(&pushReq{kind: kind, m: m, parts: []int{r}, ord: dst, src: ms.src, srcOrd: srcOrd})
}

package engine

import (
	"math/bits"
	"slices"
	"strconv"

	"alm/internal/core"
	"alm/internal/topology"
)

// This file implements the reducer's per-host pending-map index.
//
// A shuffling reducer used to answer three questions by scanning all maps
// on every fetch-session event: "which hosts serve pending maps?"
// (pickHost), "which pending maps does host h serve?" (pendingOn) and
// "which pending maps are unreachable?" (unavailablePending). At paper
// scale — 200 maps x 20 reducers x thousands of fetch sessions — those
// O(maps) rescans dominate the simulation. The index maintains the same
// information incrementally: a sorted list of pending maps per serving
// host, updated on delivery, MOF (re)generation and node-reachability
// flips.
//
// The serving host of a pending map m is am.mofHost(m) when the output is
// reachable (producing node, or an ISS replica), the producing node when
// the output exists but is unreachable (so the stock retry/strike
// protocol still targets it), and none while the map has not finished.
// Under remote shuffle it is the tier replica tier.ServeNode(m, r) picks.
// Every transition of that function is covered by a hook, and each hook
// re-resolves only the maps whose answer can have moved:
//
//   - markCopied       — the map was delivered: that map
//   - onMapAvailable   — a MOF appeared or regenerated (host/gen change):
//     that map
//   - onReachabilityChanged — a node's network stopped or came back
//     (cluster.AddReachabilityListener fires the instant it flips):
//     every pending map
//   - onTierChanged    — the shuffle tier's serve mapping shifted: the
//     one map the tier names when the reducer's partition is in the
//     change's scope (a replica landed or a map committed), every
//     pending map for the rare global changes (tier crash/restore/heal,
//     hot flag)
//   - rebuildHostIndex — the attempt begins, after any restore (apply):
//     every map
//
// Fetch choice. A fetcher picks uniformly among the hosts that have no
// open session and serve a pending map the wait advisory (shouldWait)
// does not hold back, in the order of each host's first such map. That
// map is the host's candidate (hostSlot.cand), and the index keeps every
// candidate in one bitset over maps (cand). Each pending map is filed
// under exactly one host, so no two hosts share a candidate: the hosts in
// ascending candidate order are the set bits in ascending order, and
// pickHost draws Intn(nCand) and selects that rank in O(maps/64), never
// visiting a host. A host's candidate is re-evaluated (refresh) whenever
// an input of it can have changed:
//
//   - its list changed (file, from reindexMap): the host a map left when
//     the map was its candidate, and the host the map is on, even when
//     the map stayed where it was;
//   - it opened or closed a session (setBusy, from fillFetchers and
//     endSession);
//   - shouldWait flipped for one of its maps without moving it
//     (waitChanged): a map rerun was scheduled, the tier marked a
//     segment delivered or forgot its deliveries, or a tier change named
//     a map outside this reducer's partition (the tier's Recovering and
//     FullyServable span every partition). Reachability flips and
//     in-scope tier changes re-resolve maps, so file covers them.
//
// A map after the host's candidate cannot change it, so file and
// waitChanged skip the refresh for one.
//
// Determinism: every traversal is in ascending index order. A host's
// pending maps sit in one sorted intrusive list (hostSlot.head, then
// next[m]), pending maps and candidates in bitsets. Hosts are numbered
// by slot (hostSlots), in the order they first serve one of the job's
// maps; that order is seeded like every event, and nothing reads it but
// the tables: the draw selects a rank over map indices and returns the
// node serveOf names, so the slot order cannot change a draw. The draw
// sees the same count and returns the same host the full walk over
// every host did, which checked builds re-run as the oracle at every
// pick and tier notification (checkHostIndex).
//
// Memory: per reducer, one 32-byte hostSlot per host that has served
// the job a map (list head, candidate, strike count, session flag and
// interned fetch flow name), and two int32s and two bits per map (next,
// serveOf, pending, cand). The node→slot table is per job, so nothing
// per reducer grows with the cluster: at 1,000 nodes a 200-map job's
// reducers hold 200 slots each, not 1,000. A fetch name lives only while
// its host has pending maps. A host's list holds only the maps it
// serves, so a refresh, a sorted insert or an unlink walks only that
// list.

// mapBitset is a fixed-capacity set of map indices.
type mapBitset []uint64

func newMapBitset(n int) mapBitset { return make(mapBitset, (n+63)/64) }

func (b mapBitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b mapBitset) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b mapBitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b mapBitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// each calls fn for every set bit in ascending order until fn returns
// false.
func (b mapBitset) each(fn func(int) bool) {
	for wi, w := range b {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if !fn(i) {
				return
			}
			w &= w - 1
		}
	}
}

// count returns the number of set bits.
func (b mapBitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// nth returns the k-th set bit (0-based) in ascending order, or -1 when
// fewer than k+1 bits are set.
func (b mapBitset) nth(k int) int {
	for wi, w := range b {
		if c := bits.OnesCount64(w); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			w &= w - 1
		}
		return wi<<6 + bits.TrailingZeros64(w)
	}
	return -1
}

// waiter answers the wait advisory for a map: the appMaster's
// shouldWait, or a test double.
type waiter interface {
	shouldWait(m int) bool
}

// hostSlots numbers the hosts that serve a job's maps densely, in the
// order they first serve one. There is one table per job, shared by
// every reducer's index, so a reducer's per-host state is a slice over
// the hosts that have served maps, not over the cluster's nodes.
type hostSlots struct {
	// of[n] is node n's slot, or -1 while n has served no map.
	of []int32
	// count is the number of slots numbered so far.
	count int
}

func newHostSlots(numNodes int) *hostSlots {
	hs := &hostSlots{of: make([]int32, numNodes)}
	for n := range hs.of {
		hs.of[n] = -1
	}
	return hs
}

// slot returns node n's slot, numbering n when it first serves a map.
func (hs *hostSlots) slot(n int32) int32 {
	s := hs.of[n]
	if s < 0 {
		s = int32(hs.count)
		hs.of[n] = s
		hs.count++
	}
	return s
}

// hostSlot is one reducer's state for one host.
type hostSlot struct {
	// head is the smallest pending map the host serves, or -1; the rest
	// of the list follows hostIndex.next.
	head int32
	// cand is the host's candidate: the first map of its list that wait
	// lets through, or -1 when there is none or the host is busy.
	cand int32
	// fails counts the reducer's consecutive failed fetch rounds on the
	// host (its strikes); a session that delivers resets it.
	fails int32
	// busy is set while the reducer has a fetch session open on the host.
	busy bool
	// name is the interned fetch flow name, "" until a session needs it.
	// It is dropped when the host's list empties, so a reducer keeps
	// names only for hosts it still fetches from; the name depends only
	// on (attempt, host), so a rebuild renders the same string.
	name string
}

// hostIndex is the reducer's incremental view of where its pending maps
// are served and which hosts a fetcher may pick.
type hostIndex struct {
	slots *hostSlots
	// hosts[s] is the state of the host with slot s. It covers the job's
	// slots as of the index's last growth: a host enters it when it is
	// first filed here.
	hosts []hostSlot
	// next[m] is the next larger pending map served by serveOf[m], or -1.
	next []int32
	// serveOf[m] is the node serving pending map m, or -1.
	serveOf []int32
	// pending holds every not-yet-copied map (whether or not it currently
	// has a serving host).
	pending mapBitset
	// cand holds every host's candidate, nCand counts them.
	cand  mapBitset
	nCand int
	wait  waiter
	// visits counts the candidate re-evaluations that walked a list
	// (EventStats.HostVisits).
	visits *uint64
}

func newHostIndex(slots *hostSlots, numMaps int, wait waiter, visits *uint64) *hostIndex {
	ix := &hostIndex{
		slots:   slots,
		next:    make([]int32, numMaps),
		serveOf: make([]int32, numMaps),
		pending: newMapBitset(numMaps),
		cand:    newMapBitset(numMaps),
		wait:    wait,
		visits:  visits,
	}
	ix.grow()
	for m := range ix.serveOf {
		ix.next[m] = -1
		ix.serveOf[m] = -1
	}
	return ix
}

// grow extends hosts to the job's slot count, doubling its capacity
// when it must reallocate, so a reducer that sees hosts appear one by
// one reallocates O(log hosts) times.
func (ix *hostIndex) grow() {
	n, old := ix.slots.count, len(ix.hosts)
	if n > cap(ix.hosts) {
		grown := make([]hostSlot, old, max(n, 2*cap(ix.hosts)))
		copy(grown, ix.hosts)
		ix.hosts = grown
	}
	ix.hosts = ix.hosts[:n]
	for s := old; s < n; s++ {
		ix.hosts[s] = hostSlot{head: -1, cand: -1}
	}
}

// host returns the state of node n, which must have been filed here.
func (ix *hostIndex) host(n int32) *hostSlot { return &ix.hosts[ix.slots.of[n]] }

// lookup returns the state of node n, or nil when n was never filed
// here.
func (ix *hostIndex) lookup(n int) *hostSlot {
	if s := ix.slots.of[n]; s >= 0 && int(s) < len(ix.hosts) {
		return &ix.hosts[s]
	}
	return nil
}

// file moves map m under host nh (-1: no host) and re-evaluates the
// candidates the move or a flip of m's advisory can have changed: the
// host m left when m was its candidate, and the host m is on.
func (ix *hostIndex) file(m int, nh int32) {
	old := ix.serveOf[m]
	ix.move(m, nh)
	if old != nh && old >= 0 {
		if h := ix.host(old); h.cand == int32(m) {
			ix.refresh(h)
		}
	}
	ix.touch(nh, m)
}

// setBusy records that a fetch session opened (busy) or closed on node
// n.
func (ix *hostIndex) setBusy(n int, busy bool) {
	h := ix.host(int32(n))
	h.busy = busy
	ix.refresh(h)
}

// waitChanged re-evaluates the candidate of map m's host after m's
// advisory may have flipped; m < 0 re-evaluates every host with
// pending maps.
func (ix *hostIndex) waitChanged(m int) {
	if m >= 0 {
		ix.touch(ix.serveOf[m], m)
		return
	}
	for s := range ix.hosts {
		if h := &ix.hosts[s]; h.head >= 0 {
			ix.refresh(h)
		}
	}
}

// touch re-evaluates node n's candidate (n < 0: none) when map m on its
// list can change it: m at or before the candidate, or no candidate.
// The candidate is the first map the advisory lets through, so a later
// map's advisory is never read.
func (ix *hostIndex) touch(n int32, m int) {
	if n < 0 {
		return
	}
	h := ix.host(n)
	if c := h.cand; c >= 0 && int32(m) > c {
		return
	}
	ix.refresh(h)
}

// move re-files map m under host nh (-1: no host): the old host's list
// loses m and the new one gains it at its sorted position. A host filed
// for the first time enters hosts, numbered in the job's slots if it is
// new to the job.
func (ix *hostIndex) move(m int, nh int32) {
	old := ix.serveOf[m]
	if old == nh {
		return
	}
	m32 := int32(m)
	if old >= 0 {
		h := ix.host(old)
		p := &h.head
		for *p != m32 {
			p = &ix.next[*p]
		}
		*p = ix.next[m]
		ix.next[m] = -1
		if h.head < 0 {
			h.name = ""
		}
	}
	if nh >= 0 {
		if int(ix.slots.slot(nh)) >= len(ix.hosts) {
			ix.grow()
		}
		p := &ix.host(nh).head
		for *p >= 0 && *p < m32 {
			p = &ix.next[*p]
		}
		ix.next[m] = *p
		*p = m32
	}
	ix.serveOf[m] = nh
}

// refresh re-evaluates host h's candidate: none while busy, else the
// first map of its list that wait lets through.
func (ix *hostIndex) refresh(h *hostSlot) {
	c := int32(-1)
	if !h.busy && h.head >= 0 {
		*ix.visits++
		c = h.head
		for c >= 0 && ix.wait.shouldWait(int(c)) {
			c = ix.next[c] // SFM advisory: regeneration under way
		}
	}
	if old := h.cand; old != c {
		if old >= 0 {
			ix.cand.clear(int(old))
			ix.nCand--
		}
		if c >= 0 {
			ix.cand.set(int(c))
			ix.nCand++
		}
		h.cand = c
	}
}

// pick returns the host whose candidate has rank k (0 <= k < nCand) in
// ascending map order.
func (ix *hostIndex) pick(k int) int {
	return int(ix.serveOf[ix.cand.nth(k)])
}

// appendOn appends the pending maps node n serves, in ascending order.
func (ix *hostIndex) appendOn(dst []int, n int) []int {
	h := ix.lookup(n)
	if h == nil {
		return dst
	}
	for m := h.head; m >= 0; m = ix.next[m] {
		dst = append(dst, int(m))
	}
	return dst
}

// check verifies the lists against serveOf and the candidates against
// the lists: every list strictly ascending and holding exactly the maps
// serveOf files under its host, every candidate a map of its host's
// list, cand and nCand holding exactly the candidates, and a fetch name
// kept only while its host's list is non-empty. It returns "" when the
// index is consistent.
func (ix *hostIndex) check() string {
	slotOf := func(m int32) int32 {
		if n := ix.serveOf[m]; n >= 0 {
			return ix.slots.of[n]
		}
		return -1
	}
	listed := 0
	for s := range ix.hosts {
		h := &ix.hosts[s]
		for prev, m := int32(-1), h.head; m >= 0; prev, m = m, ix.next[m] {
			if m <= prev {
				return "host slot " + strconv.Itoa(s) + " list not ascending at map " + strconv.Itoa(int(m))
			}
			if slotOf(m) != int32(s) {
				return "map " + strconv.Itoa(int(m)) + " listed under host slot " + strconv.Itoa(s) +
					", filed under node " + strconv.Itoa(int(ix.serveOf[m]))
			}
			listed++
		}
		if h.head < 0 && h.name != "" {
			return "host slot " + strconv.Itoa(s) + " keeps its fetch name with no pending map"
		}
	}
	for _, n := range ix.serveOf {
		if n >= 0 {
			listed--
		}
	}
	if listed != 0 {
		return "host lists and serveOf disagree on the number of served maps"
	}
	cands := 0
	for s := range ix.hosts {
		c := ix.hosts[s].cand
		if c < 0 {
			continue
		}
		if slotOf(c) != int32(s) || !ix.cand.has(int(c)) {
			return "host slot " + strconv.Itoa(s) + " candidate map " + strconv.Itoa(int(c)) + " not in its list or not in the candidate set"
		}
		cands++
	}
	if got := ix.cand.count(); got != cands || ix.nCand != cands {
		return "candidate set holds " + strconv.Itoa(got) + " maps, count " + strconv.Itoa(ix.nCand) +
			", hosts name " + strconv.Itoa(cands)
	}
	return ""
}

// serveHost resolves map m's current serving host, mirroring the checks
// the full scans used to make inline.
func (r *reduceExec) serveHost(m int) (topology.NodeID, bool) {
	am := r.job.am
	mof := am.mofs[m]
	if mof == nil {
		return topology.Invalid, false // map not finished yet
	}
	if tier := r.job.tier; tier != nil {
		// Remote shuffle: the segment is fetched from whichever tier
		// replica currently serves this partition. No replica servable
		// means the tier is repairing — the map has no host until then
		// (onTierChanged reindexes the moment one appears).
		return tier.ServeNode(m, r.t.idx)
	}
	if h, ok := am.mofHost(m); ok {
		return h, true
	}
	// Output exists but is unreachable: still target the producing node so
	// the stock retry/strike protocol applies.
	return mof.node, true
}

// reindexMap recomputes map m's serving host and files it there, which
// re-evaluates the candidates it can have changed (see hostIndex.file).
// Pure state maintenance: no events, no randomness.
func (r *reduceExec) reindexMap(m int) {
	ix := r.hostIdx
	if ix == nil {
		return
	}
	r.job.indexUpdates++
	nh := int32(-1)
	if !r.copied[m] {
		if h, ok := r.serveHost(m); ok {
			nh = int32(h)
		}
	}
	ix.file(m, nh)
}

// markCopied records a delivered (or restored) map and drops it from the
// index, if the attempt has one yet. It is the only place that sets
// r.copied[m]. Under
// remote shuffle the delivery can end the tier's repair obligation for
// m, which other reducers read through the wait advisory.
func (r *reduceExec) markCopied(m int) {
	if r.copied[m] {
		return
	}
	r.copied[m] = true
	r.copiedCount++
	if tier := r.job.tier; tier != nil && tier.MarkDelivered(m, r.t.idx) {
		r.job.am.waitChanged(m)
	}
	if r.hostIdx != nil {
		r.hostIdx.pending.clear(m)
		r.reindexMap(m)
	}
}

// rebuildHostIndex computes the whole index from r.copied and the AM's
// MOF registry. begin calls it once, after any restore and before the
// attempt opens a fetch session, so no host is busy.
func (r *reduceExec) rebuildHostIndex() {
	r.hostIdx = newHostIndex(r.job.hostSlots, len(r.copied), r.job.am, &r.job.hostVisits)
	for m := range r.copied {
		if r.copied[m] {
			continue
		}
		r.hostIdx.pending.set(m)
		r.reindexMap(m)
	}
}

// onReachabilityChanged re-resolves every pending map's serving host the
// instant a node's network state flips. Reachability events are rare
// (a handful per run), so the O(pending) rebuild is cheap — and it keeps
// pickHost/pendingOn exactly as fresh as the live scans they replaced.
//
// On an up-transition (a partition healed) the reducer also wakes its
// fetchers: an idle shuffle whose only pending maps sat on the dark node
// has no other event that would restart it, so without the wake the
// healed node's MOFs would wait for an unrelated session to end. The
// wake goes through a zero-delay event, not a direct call, so a heal
// never starts sessions from inside the cluster's notification sweep.
func (r *reduceExec) onReachabilityChanged(_ topology.NodeID, reachable bool) {
	if !r.indexLive() {
		return
	}
	r.reindexPending()
	if reachable {
		r.job.Eng.Post(0, r.fillFn)
	}
}

// onTierChanged re-resolves serving tier nodes after a tier state change
// scoped to map m and partitions parts (nil: all of m's): only map m is
// re-resolved, and only when this reducer's partition is in scope. m < 0
// (tier node crash/restore/heal, hot flag) re-resolves every pending
// map. Out of scope, m's host stays but its wait advisory may not: the
// tier's Recovering and FullyServable read every partition of m. Like a
// heal, a newly servable replica has no other event that would restart
// an idle shuffle, so the fetchers are woken through a zero-delay event
// — on every notification, in scope or not: the wake draws seeded
// randomness, so skipping it would change the run.
func (r *reduceExec) onTierChanged(m int, parts []int) {
	if !r.indexLive() {
		return
	}
	switch {
	case m < 0:
		r.reindexPending()
	case parts == nil || slices.Contains(parts, r.t.idx):
		r.reindexMap(m)
	default:
		r.hostIdx.waitChanged(m)
	}
	r.job.Eng.Post(0, r.fillFn)
}

// onWaitChanged re-evaluates the candidate of the host serving map m
// after an input of shouldWait(m) flipped without moving any map; m < 0
// re-evaluates every host with pending maps.
func (r *reduceExec) onWaitChanged(m int) {
	if r.indexLive() {
		r.hostIdx.waitChanged(m)
	}
}

// indexLive reports whether the reducer is shuffling with an index that
// the change hooks keep current.
func (r *reduceExec) indexLive() bool {
	return !r.dead && r.stage == core.StageShuffle && r.hostIdx != nil
}

// reindexPending re-resolves every pending map.
func (r *reduceExec) reindexPending() {
	r.hostIdx.pending.each(func(m int) bool {
		r.reindexMap(m)
		return true
	})
}

// checkHostIndex verifies the index against a full scan (testing builds
// only): every pending map must sit in exactly the list the live
// resolution would pick, every list must be ascending, and every host's
// candidate must be what the walk pickHost once made finds: none with an
// open session, else the first map of its list shouldWait lets through.
func (r *reduceExec) checkHostIndex() {
	if !invariantsEnabled || r.hostIdx == nil {
		return
	}
	ix := r.hostIdx
	for m := range r.copied {
		want := int32(-1)
		if !r.copied[m] {
			if h, ok := r.serveHost(m); ok {
				want = int32(h)
			}
		}
		if got := ix.serveOf[m]; got != want {
			panic("engine: host index out of sync for map " + strconv.Itoa(m) +
				": indexed host " + strconv.Itoa(int(got)) + ", live host " + strconv.Itoa(int(want)))
		}
	}
	if msg := ix.check(); msg != "" {
		panic("engine: " + msg)
	}
	for s, h := range ix.hosts {
		want := int32(-1)
		if !h.busy {
			for want = h.head; want >= 0 && r.job.am.shouldWait(int(want)); want = ix.next[want] {
			}
		}
		if h.cand != want {
			panic("engine: host slot " + strconv.Itoa(s) + " candidate map " + strconv.Itoa(int(h.cand)) +
				", the walk finds " + strconv.Itoa(int(want)))
		}
	}
}

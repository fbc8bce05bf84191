package engine

import (
	"math/bits"
	"slices"

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
// information incrementally: a bitset of pending maps per serving host,
// updated on delivery, MOF (re)generation and node-reachability flips.
//
// The serving host of a pending map m is am.mofHost(m) when the output is
// reachable (producing node, or an ISS replica), the producing node when
// the output exists but is unreachable (so the stock retry/strike
// protocol still targets it), and none while the map has not finished.
// Under remote shuffle it is the tier replica tier.ServeNode(m, r) picks.
// Every transition of that function is covered by a hook, and each hook
// re-resolves only the maps whose answer can have moved:
//
//   - markCopied       — the map was delivered (or restored from a log):
//     that map
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
//   - rebuildHostIndex — wholesale state replacement (checkpoint restore)
//
// Determinism: the index stores map indices in bitsets (iterated in
// ascending order) and hosts in dense NodeID-indexed slices, so every
// traversal is reproducible; pickHost reconstructs exactly the candidate
// list the full scan produced (hosts ordered by their smallest eligible
// pending map index) before consuming the engine's seeded randomness.
// It walks only the live hosts — a node bitset of non-empty buckets — in
// ascending node order; an empty bucket could never yield a candidate,
// so skipping it leaves the list unchanged.

// mapBitset is a fixed-capacity set of map indices (of node indices, for
// hostIndex.live).
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

// appendIndices appends the set bits in ascending order.
func (b mapBitset) appendIndices(dst []int) []int {
	b.each(func(i int) bool { dst = append(dst, i); return true })
	return dst
}

// hostIndex is the reducer's incremental view of where its pending maps
// are served.
type hostIndex struct {
	// byHost[n] holds the pending maps currently served by node n.
	byHost []mapBitset
	// live holds the nodes whose byHost bucket is non-empty.
	live mapBitset
	// serveOf[m] is the node serving pending map m, or -1.
	serveOf []int32
	// pending holds every not-yet-copied map (whether or not it currently
	// has a serving host).
	pending mapBitset
}

func newHostIndex(numNodes, numMaps int) *hostIndex {
	ix := &hostIndex{
		byHost:  make([]mapBitset, numNodes),
		live:    newMapBitset(numNodes),
		serveOf: make([]int32, numMaps),
		pending: newMapBitset(numMaps),
	}
	for n := range ix.byHost {
		ix.byHost[n] = newMapBitset(numMaps)
	}
	for m := range ix.serveOf {
		ix.serveOf[m] = -1
	}
	return ix
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

// reindexMap recomputes map m's serving host and moves it between host
// buckets. Pure state maintenance: no events, no randomness.
func (r *reduceExec) reindexMap(m int) {
	ix := r.hostIdx
	if ix == nil {
		return
	}
	r.job.indexUpdates++
	old := ix.serveOf[m]
	nh := int32(-1)
	if !r.copied[m] {
		if h, ok := r.serveHost(m); ok {
			nh = int32(h)
		}
	}
	if old == nh {
		return
	}
	if old >= 0 {
		ix.byHost[old].clear(m)
		if ix.byHost[old].empty() {
			ix.live.clear(int(old))
		}
	}
	if nh >= 0 {
		ix.byHost[nh].set(m)
		ix.live.set(int(nh))
	}
	ix.serveOf[m] = nh
}

// markCopied records a delivered (or restored) map and drops it from the
// index. It is the only place shuffle code may set r.copied[m].
func (r *reduceExec) markCopied(m int) {
	if r.copied[m] {
		return
	}
	r.copied[m] = true
	r.copiedCount++
	if tier := r.job.tier; tier != nil {
		tier.MarkDelivered(m, r.t.idx)
	}
	if r.hostIdx != nil {
		r.hostIdx.pending.clear(m)
		r.reindexMap(m)
	}
}

// rebuildHostIndex recomputes the whole index from r.copied and the AM's
// MOF registry — used at registration and after wholesale state
// replacement (checkpoint restore).
func (r *reduceExec) rebuildHostIndex() {
	r.hostIdx = newHostIndex(len(r.job.locals), len(r.copied))
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
		r.job.Eng.Schedule(0, r.fillFetchers)
	}
}

// onTierChanged re-resolves serving tier nodes after a tier state change
// scoped to map m and partitions parts (nil: all of m's): only map m is
// re-resolved, and only when this reducer's partition is in scope. m < 0
// (tier node crash/restore/heal, hot flag) re-resolves every pending
// map. Like a heal, a newly servable replica has no other event that
// would restart an idle shuffle, so the fetchers are woken through a
// zero-delay event — on every notification, in scope or not: the wake
// draws seeded randomness, so skipping it would change the run.
func (r *reduceExec) onTierChanged(m int, parts []int) {
	if !r.indexLive() {
		return
	}
	switch {
	case m < 0:
		r.reindexPending()
	case parts == nil || slices.Contains(parts, r.t.idx):
		r.reindexMap(m)
	}
	r.job.Eng.Schedule(0, r.fillFetchers)
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
// only): every pending map must sit in exactly the bucket the live
// resolution would pick, and the live host set must hold exactly the
// non-empty buckets.
func (r *reduceExec) checkHostIndex() {
	if !invariantsEnabled || r.hostIdx == nil {
		return
	}
	for m := range r.copied {
		want := int32(-1)
		if !r.copied[m] {
			if h, ok := r.serveHost(m); ok {
				want = int32(h)
			}
		}
		if got := r.hostIdx.serveOf[m]; got != want {
			panic("engine: host index out of sync for map " + itoa(m) +
				": indexed host " + itoa(int(got)) + ", live host " + itoa(int(want)))
		}
	}
	for n, b := range r.hostIdx.byHost {
		if r.hostIdx.live.has(n) == b.empty() {
			panic("engine: live host set out of sync for node " + itoa(n))
		}
	}
}

func itoa(i int) string {
	if i < 0 {
		return "-" + itoa(-i)
	}
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + string(rune('0'+i%10))
}

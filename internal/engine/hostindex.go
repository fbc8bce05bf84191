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
// Determinism: every traversal is in ascending index order. A host's
// pending maps sit in one sorted intrusive list (head[n], then next[m]),
// pending maps and live hosts in bitsets, hosts in dense NodeID-indexed
// slices. pickHost reconstructs exactly the candidate list the full scan
// produced (hosts ordered by their smallest eligible pending map index)
// before consuming the engine's seeded randomness. It walks only the
// live hosts — a node bitset of non-empty lists — in ascending node
// order; an empty list could never yield a candidate, so skipping it
// leaves the list unchanged.
//
// Memory: per reducer, one int32 and one bit per node (head, live) and
// two int32s and one bit per map (next, serveOf, pending) — linear in
// nodes + maps, never nodes × maps. A host's list holds only the maps it
// serves, so walking it costs O(its pending maps), and a sorted insert
// or unlink in reindexMap walks the same list.

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

// hostIndex is the reducer's incremental view of where its pending maps
// are served.
type hostIndex struct {
	// head[n] is the smallest pending map served by node n, or -1; next[m]
	// is the next larger pending map served by serveOf[m], or -1. Together
	// they hold one ascending list per host.
	head []int32
	next []int32
	// live holds the nodes whose list is non-empty.
	live mapBitset
	// serveOf[m] is the node serving pending map m, or -1.
	serveOf []int32
	// pending holds every not-yet-copied map (whether or not it currently
	// has a serving host).
	pending mapBitset
}

func newHostIndex(numNodes, numMaps int) *hostIndex {
	ix := &hostIndex{
		head:    make([]int32, numNodes),
		next:    make([]int32, numMaps),
		live:    newMapBitset(numNodes),
		serveOf: make([]int32, numMaps),
		pending: newMapBitset(numMaps),
	}
	for n := range ix.head {
		ix.head[n] = -1
	}
	for m := range ix.serveOf {
		ix.next[m] = -1
		ix.serveOf[m] = -1
	}
	return ix
}

// move re-files map m under host nh (-1: no host). The old host's list
// loses m, the new one gains it at its sorted position, and live tracks
// which lists are non-empty.
func (ix *hostIndex) move(m int, nh int32) {
	old := ix.serveOf[m]
	if old == nh {
		return
	}
	m32 := int32(m)
	if old >= 0 {
		p := &ix.head[old]
		for *p != m32 {
			p = &ix.next[*p]
		}
		*p = ix.next[m]
		ix.next[m] = -1
		if ix.head[old] < 0 {
			ix.live.clear(int(old))
		}
	}
	if nh >= 0 {
		p := &ix.head[nh]
		for *p >= 0 && *p < m32 {
			p = &ix.next[*p]
		}
		ix.next[m] = *p
		*p = m32
		ix.live.set(int(nh))
	}
	ix.serveOf[m] = nh
}

// appendOn appends the pending maps node n serves, in ascending order.
func (ix *hostIndex) appendOn(dst []int, n int) []int {
	for m := ix.head[n]; m >= 0; m = ix.next[m] {
		dst = append(dst, int(m))
	}
	return dst
}

// check verifies the lists against serveOf and live: every list strictly
// ascending and holding exactly the maps serveOf files under its host,
// and live holding exactly the non-empty lists. It returns "" when the
// index is consistent.
func (ix *hostIndex) check() string {
	listed := 0
	for n, m := range ix.head {
		if ix.live.has(n) != (m >= 0) {
			return "live host set out of sync for node " + itoa(n)
		}
		for prev := int32(-1); m >= 0; prev, m = m, ix.next[m] {
			if m <= prev {
				return "host " + itoa(n) + " list not ascending at map " + itoa(int(m))
			}
			if ix.serveOf[m] != int32(n) {
				return "map " + itoa(int(m)) + " listed under host " + itoa(n) +
					", filed under " + itoa(int(ix.serveOf[m]))
			}
			listed++
		}
	}
	for _, h := range ix.serveOf {
		if h >= 0 {
			listed--
		}
	}
	if listed != 0 {
		return "host lists and serveOf disagree on the number of served maps"
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

// reindexMap recomputes map m's serving host and moves it between host
// lists. Pure state maintenance: no events, no randomness.
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
	ix.move(m, nh)
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
		r.job.Eng.Post(0, r.fillFn)
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
	r.job.Eng.Post(0, r.fillFn)
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
// resolution would pick, every list must be ascending, and the live host
// set must hold exactly the non-empty lists.
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
	if msg := r.hostIdx.check(); msg != "" {
		panic("engine: " + msg)
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

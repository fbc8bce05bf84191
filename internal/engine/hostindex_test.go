package engine

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"alm/internal/sim"
	"alm/internal/topology"
	"alm/internal/workloads"
)

// allocBytes reports the bytes f allocates, read from the runtime's
// cumulative TotalAlloc around one call on the calling goroutine.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A reducer's host index must grow with the hosts that serve the job's
// maps and with the maps, never with the cluster: the node→slot table
// is the job's, so an 8,000-map index over 50 serving hosts allocates
// the same at 4,000 and at 40,000 nodes (about 67 KB), where per-node
// tables took 4,000 × 9 B more at 4,000 nodes and a bitset of all maps
// per node about 4.1 MB.
func TestHostIndexSizeLinear(t *testing.T) {
	const limit = 96 << 10
	size := func(nodes int) uint64 {
		slots := newHostSlots(nodes)
		for n := 0; n < nodes; n += nodes / 50 {
			slots.slot(int32(n))
		}
		var ix *hostIndex
		got := allocBytes(func() { ix = newHostIndex(slots, 8000, nil, nil) })
		runtime.KeepAlive(ix)
		return got
	}
	small, large := size(4000), size(40000)
	t.Logf("newHostIndex over 50 slots and 8000 maps allocated %d bytes at 4,000 nodes, %d at 40,000", small, large)
	if small != large {
		t.Fatalf("the index allocated %d bytes at 4,000 nodes and %d at 40,000: it grows with the node count", small, large)
	}
	if small >= limit {
		t.Fatalf("newHostIndex over 50 slots and 8000 maps allocated %d bytes, want < %d", small, limit)
	}
}

// candidate returns node n's candidate map, or -1.
func (ix *hostIndex) candidate(n int) int {
	if h := ix.lookup(n); h != nil {
		return int(h.cand)
	}
	return -1
}

// isBusy reports whether the reducer has a fetch session open on node n.
func (ix *hostIndex) isBusy(n int) bool {
	h := ix.lookup(n)
	return h != nil && h.busy
}

// walkHosts is the walk pickHost made before the candidate set: over
// every host in ascending order, each one without an open session that
// lists a map wait lets through, inserted by the first such map. lists[n]
// is host n's pending maps in ascending order.
func walkHosts(lists [][]int, busy, wait func(int) bool) []int {
	var hosts, first []int
	for n, list := range lists {
		if busy(n) {
			continue
		}
		for _, m := range list {
			if wait(m) {
				continue
			}
			i, _ := slices.BinarySearch(first, m)
			first = slices.Insert(first, i, m)
			hosts = slices.Insert(hosts, i, n)
			break
		}
	}
	return hosts
}

// pickMismatch compares the candidate set with the walk: the same count,
// and pick(k) the walk's k-th host for every k. It returns "" when they
// agree.
func pickMismatch(ix *hostIndex, walk []int) string {
	if ix.nCand != len(walk) {
		return fmt.Sprintf("%d candidates, the walk finds %d hosts %v", ix.nCand, len(walk), walk)
	}
	for k, n := range walk {
		if got := ix.pick(k); got != n {
			return fmt.Sprintf("pick(%d) = host %d, the walk's host %d", k, got, n)
		}
	}
	return ""
}

// waitSet is a waiter over a fixed set of held-back maps.
type waitSet []bool

func (w waitSet) shouldWait(m int) bool { return w[m] }

// FuzzHostIndex drives a hostIndex through a script of moves, clears,
// session changes and wait-advisory flips, through the calls the
// reducer's hooks make, and checks it after every step against a
// map-per-host oracle: each host's list holds exactly the oracle's maps
// in ascending order, serveOf and pending agree, and the candidate set
// gives the count and the k-th host of the walk pickHost once made
// (every session-free host with a map the advisory lets through, ordered
// by its first such map).
//
// Input: byte 0 picks the node count (1–16), byte 1 the map count
// (1–130, so the bitsets span three words), then 3 bytes per step:
// kind, map, host. Kind%4 == 0 delivers the map (clears it from pending
// and unfiles it, as markCopied does); kind%4 == 3 opens or closes a
// session on host byte%nodes (kind&4 == 0; skipped for a host never
// filed, as pickHost returns only filed hosts) or flips the advisory for
// the map (kind&4 != 0) and reports it for that map (kind&8 == 0) or for
// every map; otherwise the map moves to host byte%(nodes+1)-1, -1
// meaning "no serving host", and a delivered map stays unfiled, as
// reindexMap leaves it.
//
// Slots: a hash of the whole input shuffles the nodes and numbers a
// prefix of the shuffle before the index is built, as other reducers of
// the job would have; every other node is numbered when it is first
// filed, which grows the index's tables mid-script. The draw must not
// depend on that order.
func FuzzHostIndex(f *testing.F) {
	f.Add([]byte{3, 10, 1, 0, 1, 1, 1, 1, 1, 2, 2, 0, 1, 3})
	f.Add([]byte{15, 129, 1, 128, 4, 1, 64, 4, 1, 63, 4, 0, 64, 0, 2, 128, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nodes, maps := 1+int(data[0])%16, 1+int(data[1])%130
		wait := make(waitSet, maps)
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		slots := newHostSlots(nodes)
		order := rng.Perm(nodes)
		for _, n := range order[:rng.Intn(nodes+1)] {
			slots.slot(int32(n))
		}
		ix := newHostIndex(slots, maps, wait, new(uint64))
		oracle := make([]map[int]bool, nodes)
		for n := range oracle {
			oracle[n] = map[int]bool{}
		}
		serve := make([]int32, maps)
		pending := make([]bool, maps)
		for m := range maps {
			serve[m] = -1
			pending[m] = true
			ix.pending.set(m)
		}
		for step, ops := 0, data[2:]; len(ops) >= 3; step, ops = step+1, ops[3:] {
			m := int(ops[1]) % maps
			switch kind := ops[0]; {
			case kind%4 == 3 && kind&4 == 0:
				n := int(ops[2]) % nodes
				if ix.lookup(n) != nil {
					ix.setBusy(n, !ix.isBusy(n))
				}
			case kind%4 == 3:
				wait[m] = !wait[m]
				if kind&8 != 0 {
					ix.waitChanged(-1)
				} else {
					ix.waitChanged(m)
				}
			default:
				nh := int32(int(ops[2])%(nodes+1) - 1)
				if kind%4 == 0 {
					pending[m] = false
					ix.pending.clear(m)
				}
				if !pending[m] {
					nh = -1
				}
				if old := serve[m]; old >= 0 {
					delete(oracle[old], m)
				}
				if nh >= 0 {
					oracle[nh][m] = true
				}
				serve[m] = nh
				ix.file(m, nh)
			}

			if msg := ix.check(); msg != "" {
				t.Fatalf("step %d: %s", step, msg)
			}
			if len(ix.hosts) != slots.count {
				t.Fatalf("step %d: %d host slots in the index, %d in the job", step, len(ix.hosts), slots.count)
			}
			if !slices.Equal(ix.serveOf, serve) {
				t.Fatalf("step %d: serveOf %v, oracle %v", step, ix.serveOf, serve)
			}
			for mm, p := range pending {
				if ix.pending.has(mm) != p {
					t.Fatalf("step %d: pending[%d] = %v, oracle %v", step, mm, ix.pending.has(mm), p)
				}
			}
			lists := make([][]int, nodes)
			for n := range nodes {
				for mm := range oracle[n] {
					lists[n] = append(lists[n], mm)
				}
				slices.Sort(lists[n])
				if got := ix.appendOn(nil, n); !slices.Equal(got, lists[n]) {
					t.Fatalf("step %d: host %d lists %v, oracle %v", step, n, got, lists[n])
				}
			}
			walk := walkHosts(lists, ix.isBusy, wait.shouldWait)
			if msg := pickMismatch(ix, walk); msg != "" {
				t.Fatalf("step %d: %s", step, msg)
			}
		}
	})
}

// reducerWalk runs walkHosts over a live reducer's index.
func reducerWalk(r *reduceExec) []int {
	lists := make([][]int, r.job.Cluster.Topo.NumNodes())
	for n := range lists {
		lists[n] = r.hostIdx.appendOn(nil, n)
	}
	return walkHosts(lists, r.hostIdx.isBusy, r.job.am.shouldWait)
}

// assertPicks fails the test unless r's candidate set agrees with the
// walk, then picks a host as a fetcher would.
func assertPicks(t *testing.T, r *reduceExec, when string) {
	t.Helper()
	walk := reducerWalk(r)
	if msg := pickMismatch(r.hostIdx, walk); msg != "" {
		t.Fatalf("%s: %s", when, msg)
	}
	host, ok := r.pickHost()
	if ok != (len(walk) > 0) || ok && !slices.Contains(walk, int(host)) {
		t.Fatalf("%s: picked host %d (%v), the walk offers %v", when, host, ok, walk)
	}
}

// failOnPanic turns a checked-build panic (checkHostIndex at a tier
// notification or a pick) into a test failure.
func failOnPanic(t *testing.T) {
	if p := recover(); p != nil {
		t.Fatalf("panic: %v", p)
	}
}

// A scheduled map rerun flips the SFM wait advisory for an unreachable
// MOF without moving it: the host serving it must lose it as its
// candidate although its list is unchanged.
func TestCandidateFollowsRerunScheduled(t *testing.T) {
	defer failOnPanic(t)
	spec := terasortSpec(ModeSFM)
	spec.NumReduces = 1
	eng, job := newSteppingJob(t, spec, nil)
	host := -1
	r := stepUntilExec(t, eng, job, func(r *reduceExec) bool {
		host = idleCandidateHost(r)
		return host >= 0
	})
	m := r.hostIdx.candidate(host)
	job.Cluster.StopNetwork(topology.NodeID(host))
	if r.hostIdx.serveOf[m] != int32(host) || job.am.shouldWait(m) {
		t.Fatalf("map %d moved off host %d or waits before the rerun", m, host)
	}
	job.am.ScheduleMapRerun(m, true, topology.Invalid, "test")
	if !job.am.shouldWait(m) {
		t.Fatalf("map %d does not wait after its rerun was scheduled", m)
	}
	assertPicks(t, r, "after the rerun was scheduled")
}

// idleCandidateHost returns a host other than r's own node that has no
// open session and a candidate, or -1.
func idleCandidateHost(r *reduceExec) int {
	for n := range r.job.Cluster.Topo.NumNodes() {
		if r.hostIdx.candidate(n) >= 0 && !r.hostIdx.isBusy(n) && topology.NodeID(n) != r.a.node {
			return n
		}
	}
	return -1
}

// tierLossSetup runs a remote-shuffle job with three reducers and the
// default three tier services, and crashes tier ordinals 0 and 1 just
// before reducer 2's first fetch session lands (found by a first run of
// the same seeded job). Partition 0 then keeps no replica, so every map
// reducer 0 has not fetched is Recovering; reducer 2's own partition is
// still served by ordinal 2, but it waits on every map it has left, and
// its one host stays without a session until the tier re-pushes
// partition 0 there. The job is stepped to that idle state; it returns
// reducer 2, reducer 0 and reducer 2's first waiting map, which both
// still need.
func tierLossSetup(t *testing.T) (*sim.Engine, *Job, *reduceExec, *reduceExec, int) {
	t.Helper()
	spec := remoteSpec(workloads.Terasort(), ModeYARN, 3)
	spec.InputBytes = 10 << 30
	firstCopy := func(r *reduceExec) bool { return r.t.idx == 2 && r.copiedCount > 0 }
	eng, job := newSteppingJob(t, spec, nil)
	stepUntilExec(t, eng, job, firstCopy)
	landed := eng.Now()

	eng, job = newSteppingJob(t, spec, nil)
	eng.At(landed-sim.Time(100*time.Millisecond), func() {
		job.tier.CrashOrdinal(0)
		job.tier.CrashOrdinal(1)
	})
	r := stepUntilExec(t, eng, job, firstCopy)
	r0 := shufflingReducer(job, 0)
	if r.sessions > 0 || r.hostIdx.nCand > 0 || r0 == nil {
		t.Fatalf("reducer 2 has %d sessions and %d candidates after its first session landed", r.sessions, r.hostIdx.nCand)
	}
	m := -1
	r.hostIdx.pending.each(func(mm int) bool {
		if r.hostIdx.serveOf[mm] >= 0 && job.am.shouldWait(mm) && !r0.copied[mm] {
			m = mm
			return false
		}
		return true
	})
	if m < 0 {
		t.Fatal("reducer 2 has no waiting map reducer 0 still needs")
	}
	return eng, job, r, r0, m
}

// shufflingReducer returns the live shuffling exec of partition p, or
// nil.
func shufflingReducer(job *Job, p int) *reduceExec {
	for _, ex := range job.am.reduceExecs {
		if r, ok := ex.(*reduceExec); ok && r.t.idx == p && r.indexLive() {
			return r
		}
	}
	return nil
}

// A tier change scoped to another reducer's partition can end the
// tier's repair of a map this reducer waits on: the re-push of map m's
// lost partition 0 lands on ordinal 2, m stops Recovering, and reducer
// 2 must regain it as a candidate though the notification did not name
// its partition.
func TestCandidateFollowsOutOfScopeTierChange(t *testing.T) {
	defer failOnPanic(t)
	eng, job, r, _, m := tierLossSetup(t)
	for job.am.shouldWait(m) {
		if !eng.Pending() || job.Finished() {
			t.Fatalf("map %d never stopped Recovering", m)
		}
		eng.Step()
		assertPicks(t, r, "while partition 0 is repaired")
	}
}

// Reducer 0 delivering map m ends the tier's repair obligation for its
// lost partition, so reducer 2 stops waiting on m: the tier marked a
// segment delivered that has no stored replica.
func TestCandidateFollowsMarkDelivered(t *testing.T) {
	defer failOnPanic(t)
	_, job, r, r0, m := tierLossSetup(t)
	r0.markCopied(m)
	if job.am.shouldWait(m) {
		t.Fatalf("map %d still waits after reducer 0 took it", m)
	}
	assertPicks(t, r, "after reducer 0 took the map")
}

// Reducer 0's attempt failing makes the tier forget what it delivered,
// so a map whose partition 0 has no replica is Recovering again and
// reducer 2 must wait on it anew.
func TestCandidateFollowsResetDelivered(t *testing.T) {
	defer failOnPanic(t)
	_, job, r, r0, m := tierLossSetup(t)
	r0.markCopied(m)
	assertPicks(t, r, "after reducer 0 took the map")
	job.am.attemptFailed(r0.a, "test")
	if !job.am.shouldWait(m) {
		t.Fatalf("map %d does not wait after reducer 0's attempt failed", m)
	}
	assertPicks(t, r, "after reducer 0's attempt failed")
}

package shuffletier

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"alm/internal/sim"
	"alm/internal/topology"
)

// serveAt is one ServeNode answer.
type serveAt struct {
	node topology.NodeID
	ok   bool
}

// scopeMirror is the engine's view of the serve mapping, kept the way
// the engine keeps its host index: a (map, partition) entry is refreshed
// only when an OnChange scope covers it, and every entry on a cluster
// reachability flip. check fails when a live ServeNode answer moved
// outside every scope reported since the previous check.
type scopeMirror struct {
	t      *testing.T
	tr     *Tier
	seen   [][]serveAt // [map][partition]
	global int         // OnChange calls with m < 0
	scoped int         // OnChange calls naming one map
}

func newScopeMirror(t *testing.T, tr *Tier, maps int) *scopeMirror {
	s := &scopeMirror{t: t, tr: tr, seen: make([][]serveAt, maps)}
	for m := range s.seen {
		s.seen[m] = make([]serveAt, parts)
	}
	s.refresh(-1, nil)
	tr.OnChange = func(m int, ps []int) {
		if m < 0 {
			s.global++
		} else {
			s.scoped++
		}
		s.refresh(m, ps)
		s.check("OnChange")
	}
	// Registered after the tier's own listener, like the engine's: a
	// down-flip fires no OnChange, so the engine re-resolves every map.
	tr.cl.AddReachabilityListener(func(topology.NodeID, bool) { s.refresh(-1, nil) })
	return s
}

func (s *scopeMirror) refresh(m int, ps []int) {
	for mm := range s.seen {
		if m >= 0 && mm != m {
			continue
		}
		for r := range s.seen[mm] {
			if m >= 0 && ps != nil && !slices.Contains(ps, r) {
				continue
			}
			n, ok := s.tr.ServeNode(mm, r)
			s.seen[mm][r] = serveAt{n, ok}
		}
	}
}

func (s *scopeMirror) check(where string) {
	s.t.Helper()
	for m := range s.seen {
		for r, was := range s.seen[m] {
			if n, ok := s.tr.ServeNode(m, r); (serveAt{n, ok}) != was {
				s.t.Fatalf("%s: ServeNode(%d, %d) moved from %v to %v outside every reported scope",
					where, m, r, was, serveAt{n, ok})
			}
		}
	}
}

// TestOnChangeScopeSound drives a tier through seeded random mixes of
// pushes, flow completions, tier crashes and restores, hot partitions,
// reachability flips, node crashes and delivery resets, and checks at
// every OnChange, after every operation and at the end that no serve
// answer moved outside the reported scopes.
func TestOnChangeScopeSound(t *testing.T) {
	const maps = 12
	for seed := int64(1); seed <= 20; seed++ {
		e, cl, tr := rig(t, Options{TierNodes: 3, Replication: 2, MaxInflight: 2, MaxQueue: 3, HotFactor: 1.5})
		mirror := newScopeMirror(t, tr, maps)
		rng := rand.New(rand.NewSource(seed))
		nodes := cl.Topo.NumNodes()
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				bytes := make([]int64, parts)
				for r := range bytes {
					bytes[r] = int64(1+rng.Intn(64)) << 20
				}
				tr.Push(rng.Intn(maps), topology.NodeID(rng.Intn(nodes)), bytes, func() {})
			case op < 6:
				e.Run(e.Now() + sim.Time(rng.Intn(2000))*sim.Time(time.Millisecond))
			case op == 6:
				o := rng.Intn(tr.Size())
				if rng.Intn(2) == 0 {
					tr.CrashOrdinal(o)
				} else {
					tr.RestoreOrdinal(o)
				}
			case op == 7:
				tr.MarkHotPartition(rng.Intn(parts), rng.Intn(2) == 0)
			case op == 8:
				id := topology.NodeID(rng.Intn(nodes))
				switch rng.Intn(3) {
				case 0:
					cl.StopNetwork(id)
				case 1:
					cl.Crash(id)
					tr.NodeCrashed(id)
				default:
					cl.Restore(id)
				}
			default:
				m, r := rng.Intn(maps), rng.Intn(parts)
				if rng.Intn(2) == 0 {
					tr.MarkDelivered(m, r)
				} else {
					tr.ResetDelivered(r)
				}
			}
			mirror.check("after step")
		}
		for id := 0; id < nodes; id++ {
			cl.Restore(topology.NodeID(id))
		}
		for o := 0; o < tr.Size(); o++ {
			tr.RestoreOrdinal(o)
		}
		drain(e)
		mirror.check("end")
		if mirror.scoped == 0 || mirror.global == 0 {
			t.Fatalf("seed %d: %d scoped and %d global notifications, want both kinds", seed, mirror.scoped, mirror.global)
		}
	}
}

// TestOnChangeScopeOfFlowDone pins the two scoped reports: the flow that
// commits a map reports every partition (parts == nil), and a replica
// landing on an already committed map reports exactly the partitions the
// flow carried — the ones whose stored mask changed.
func TestOnChangeScopeOfFlowDone(t *testing.T) {
	e, _, tr := rig(t, Options{TierNodes: 3, Replication: 2})
	type note struct {
		m       int
		parts   []int
		changed []int // partitions whose stored mask changed since the last note
	}
	var notes []note
	prev := make([]uint64, parts)
	tr.OnChange = func(m int, ps []int) {
		var changed []int
		for r, mask := range tr.maps[0].stored {
			if mask != prev[r] {
				changed = append(changed, r)
			}
		}
		copy(prev, tr.maps[0].stored)
		notes = append(notes, note{m, slices.Clone(ps), changed})
	}
	push(e, tr, 0, 0)
	// Three composite pushes, one per ordinal: the first to land leaves
	// the map uncommitted (no report), the second commits it, the third
	// adds replicas to a committed map.
	if len(notes) != 2 {
		t.Fatalf("notifications = %+v, want 2", notes)
	}
	if n := notes[0]; n.m != 0 || n.parts != nil {
		t.Fatalf("commit flip reported (%d, %v), want (0, nil)", n.m, n.parts)
	}
	if n := notes[1]; n.m != 0 || n.parts == nil || !slices.Equal(n.parts, n.changed) {
		t.Fatalf("replica landing reported (%d, %v), want (0, %v)", n.m, n.parts, n.changed)
	}
}

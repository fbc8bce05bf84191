package shuffletier

import (
	"testing"
	"time"

	"alm/internal/cluster"
	"alm/internal/sim"
	"alm/internal/topology"
	"alm/internal/trace"
)

const parts = 4

// The package's tests run with the tier's cross-checks armed.
func init() { EnableChecks() }

// drain advances the simulation a bounded hour — plenty for any tier
// transfer here, and finite despite the cluster's recurring heartbeat
// sweeps (which keep the event queue forever non-empty).
func drain(e *sim.Engine) {
	e.Run(e.Now() + sim.Time(time.Hour))
}

func rig(t *testing.T, opt Options) (*sim.Engine, *cluster.Cluster, *Tier) {
	t.Helper()
	topo := topology.MustNew(topology.Options{Racks: 2, NodesPerRack: 4, HW: topology.DefaultHardware()})
	e := sim.NewEngine(1)
	cl := cluster.New(e, topo, cluster.Options{HeartbeatInterval: time.Second, NodeExpiry: 10 * time.Second})
	return e, cl, New(cl, trace.New(), parts, opt)
}

func push(e *sim.Engine, tr *Tier, m int, src topology.NodeID) *int {
	commits := new(int)
	bytes := make([]int64, parts)
	for r := range bytes {
		bytes[r] = 1 << 20
	}
	tr.Push(m, src, bytes, func() { *commits++ })
	drain(e)
	return commits
}

func TestTierPlacementDeterministicAndSpread(t *testing.T) {
	_, _, tr := rig(t, Options{TierNodes: 4})
	_, _, tr2 := rig(t, Options{TierNodes: 4})
	a, b := tr.Nodes(), tr2.Nodes()
	if len(a) != 4 {
		t.Fatalf("tier size = %d, want 4", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement differs between identical rigs: %v vs %v", a, b)
		}
	}
	// Tail of each rack, round-robin: racks are {0..3} and {4..7}.
	want := []topology.NodeID{3, 7, 2, 6}
	for i, id := range a {
		if id != want[i] {
			t.Fatalf("placement = %v, want %v", a, want)
		}
	}
}

func TestPushCommitAndServe(t *testing.T) {
	e, _, tr := rig(t, Options{TierNodes: 3, Replication: 2})
	commits := push(e, tr, 0, 0)
	if *commits != 1 {
		t.Fatalf("commits = %d, want 1", *commits)
	}
	if !tr.FullyServable(0) {
		t.Fatal("committed map not fully servable")
	}
	for r := 0; r < parts; r++ {
		if _, ok := tr.ServeNode(0, r); !ok {
			t.Fatalf("partition %d has no serve node", r)
		}
	}
	if tr.PushBytes() != int64(parts)*(1<<20)*2 {
		t.Fatalf("push bytes = %d, want %d (4 parts x 1MiB x RF2)", tr.PushBytes(), int64(parts)*(1<<20)*2)
	}
}

func TestBackpressureQueueing(t *testing.T) {
	e, _, tr := rig(t, Options{TierNodes: 2, Replication: 1, MaxInflight: 1, MaxQueue: 1})
	var stalls int
	tr.OnBackpressure = func(ord, depth int) { stalls++ }
	// Eight simultaneous pushes through 2 one-slot nodes must queue.
	total := new(int)
	bytes := make([]int64, parts)
	for r := range bytes {
		bytes[r] = 1 << 20
	}
	for m := 0; m < 8; m++ {
		tr.Push(m, topology.NodeID(m%4), bytes, func() { *total++ })
	}
	drain(e)
	if *total != 8 {
		t.Fatalf("commits = %d, want 8", *total)
	}
	if stalls == 0 {
		t.Fatal("no backpressure signal despite 1-slot, 1-deep queues")
	}
}

func TestCrashRereplicatesFromSurvivor(t *testing.T) {
	e, _, tr := rig(t, Options{TierNodes: 3, Replication: 2})
	push(e, tr, 0, 0)
	var changes int
	tr.OnChange = func(int, []int) { changes++ }
	tr.CrashOrdinal(0)
	drain(e)
	if tr.ReplicationBytes() == 0 {
		t.Fatal("no tier-to-tier re-replication after ordinal crash")
	}
	if !tr.FullyServable(0) {
		t.Fatal("map not fully servable after re-replication")
	}
	if tr.PendingRecovery() != 0 {
		t.Fatalf("pending recovery = %d, want 0", tr.PendingRecovery())
	}
	if changes == 0 {
		t.Fatal("OnChange never fired")
	}
}

func TestCrashRepushesFromSource(t *testing.T) {
	e, _, tr := rig(t, Options{TierNodes: 2, Replication: 1})
	push(e, tr, 0, 0)
	// RF=1: partitions 0,2 sit only on ordinal 0; crashing it leaves no
	// surviving replica, so repair must re-push from the map node.
	tr.CrashOrdinal(0)
	drain(e)
	if tr.RepushBytes() == 0 {
		t.Fatal("no re-push from the producing node")
	}
	if !tr.FullyServable(0) {
		t.Fatal("map not fully servable after re-push")
	}
}

func TestRerunNeededWhenSourceAndReplicasGone(t *testing.T) {
	e, cl, tr := rig(t, Options{TierNodes: 2, Replication: 1})
	push(e, tr, 0, 0)
	reruns := []int{}
	tr.OnRerunNeeded = func(m int) { reruns = append(reruns, m) }
	cl.Crash(0) // producing node's local MOF copy dies
	drain(e)
	tr.CrashOrdinal(0)
	tr.CrashOrdinal(1)
	drain(e)
	if len(reruns) != 1 || reruns[0] != 0 {
		t.Fatalf("rerun requests = %v, want [0]", reruns)
	}
	if !tr.Recovering(0) {
		t.Fatal("map not reported recovering while rerun is pending")
	}
	// The rerun's re-push makes the map whole again and recommits.
	commits := new(int)
	bytes := make([]int64, parts)
	for r := range bytes {
		bytes[r] = 1 << 20
	}
	tr.RestoreOrdinal(0)
	tr.RestoreOrdinal(1)
	tr.Push(0, 1, bytes, func() { *commits++ })
	drain(e)
	if *commits != 1 {
		t.Fatalf("recommits = %d, want 1", *commits)
	}
	if !tr.FullyServable(0) {
		t.Fatal("map not servable after rerun re-push")
	}
}

func TestDeliveredSegmentsCreateNoObligation(t *testing.T) {
	e, _, tr := rig(t, Options{TierNodes: 2, Replication: 1})
	push(e, tr, 0, 0)
	for r := 0; r < parts; r++ {
		tr.MarkDelivered(0, r)
	}
	tr.CrashOrdinal(0)
	tr.CrashOrdinal(1)
	drain(e)
	if tr.PendingRecovery() != 0 {
		t.Fatalf("pending recovery = %d, want 0 (all segments delivered)", tr.PendingRecovery())
	}
	if tr.Recovering(0) {
		t.Fatal("delivered map reported as recovering")
	}
	// A reduce-attempt restart re-creates the obligations.
	tr.ResetDelivered(1)
	if tr.PendingRecovery() == 0 {
		t.Fatal("ResetDelivered created no repair obligation")
	}
}

func TestHotPartitionServesAwayFromPrimary(t *testing.T) {
	e, _, tr := rig(t, Options{TierNodes: 3, Replication: 2})
	push(e, tr, 0, 0)
	primary, ok := tr.ServeNode(0, 1)
	if !ok || primary != tr.PrimaryNode(1) {
		t.Fatalf("before marking hot: serve node %v, want primary %v", primary, tr.PrimaryNode(1))
	}
	tr.MarkHotPartition(1, true)
	h, ok := tr.ServeNode(0, 1)
	if !ok {
		t.Fatal("hot partition unservable")
	}
	if h == tr.PrimaryNode(1) {
		t.Fatal("hot partition still served from its primary replica")
	}
	tr.MarkHotPartition(1, false)
	h, _ = tr.ServeNode(0, 1)
	if h != tr.PrimaryNode(1) {
		t.Fatal("healed hot partition did not return to its primary")
	}
	_ = e
}

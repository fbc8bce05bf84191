package cluster

import (
	"testing"
	"time"

	"alm/internal/sim"
	"alm/internal/topology"
)

func rig() (*sim.Engine, *Cluster) {
	hw := topology.Hardware{NICBandwidth: 1000, DiskReadBW: 1000, DiskWriteBW: 1000, MemoryMB: 4096, Cores: 4}
	topo := topology.MustNew(topology.Options{Racks: 2, NodesPerRack: 3, HW: hw})
	e := sim.NewEngine(1)
	c := New(e, topo, Options{HeartbeatInterval: time.Second, NodeExpiry: 10 * time.Second})
	return e, c
}

func TestAllocateAndRelease(t *testing.T) {
	e, c := rig()
	var got *Container
	c.Allocate(&Request{MemMB: 1024, Grant: func(ct *Container) { got = ct }})
	e.Run(0)
	if got == nil {
		t.Fatal("container not granted")
	}
	if c.FreeMemMB(got.Node) != 4096-1024 {
		t.Fatalf("free mem = %d, want 3072", c.FreeMemMB(got.Node))
	}
	if c.ContainersOn(got.Node) != 1 {
		t.Fatalf("containers = %d, want 1", c.ContainersOn(got.Node))
	}
	c.Release(got)
	e.Run(0)
	if c.FreeMemMB(got.Node) != 4096 {
		t.Fatalf("free mem after release = %d, want 4096", c.FreeMemMB(got.Node))
	}
	// Double release is harmless.
	c.Release(got)
	e.Run(0)
	if c.FreeMemMB(got.Node) != 4096 {
		t.Fatal("double release corrupted accounting")
	}
}

func TestLocalityPreference(t *testing.T) {
	e, c := rig()
	var got *Container
	c.Allocate(&Request{MemMB: 1024, Preferred: []topology.NodeID{4}, Grant: func(ct *Container) { got = ct }})
	e.Run(0)
	if got == nil || got.Node != 4 {
		t.Fatalf("container on %v, want preferred node 4", got)
	}
}

func TestQueueingWhenFull(t *testing.T) {
	e, c := rig()
	// Fill the cluster: 6 nodes x 4096 MB = 6 containers of 4096.
	var granted []*Container
	for i := 0; i < 7; i++ {
		c.Allocate(&Request{MemMB: 4096, Grant: func(ct *Container) { granted = append(granted, ct) }})
	}
	e.Run(0)
	if len(granted) != 6 {
		t.Fatalf("granted = %d, want 6", len(granted))
	}
	if c.QueueLen() != 1 {
		t.Fatalf("queued = %d, want 1", c.QueueLen())
	}
	c.Release(granted[0])
	e.Run(e.Now())
	if len(granted) != 7 {
		t.Fatalf("queued request not served after release: %d", len(granted))
	}
}

func TestPriorityOrdering(t *testing.T) {
	e, c := rig()
	var fill []*Container
	for i := 0; i < 6; i++ {
		c.Allocate(&Request{MemMB: 4096, Grant: func(ct *Container) { fill = append(fill, ct) }})
	}
	e.Run(0)
	var order []string
	c.Allocate(&Request{MemMB: 4096, Priority: 0, Grant: func(*Container) { order = append(order, "low") }})
	c.Allocate(&Request{MemMB: 4096, Priority: 10, Grant: func(*Container) { order = append(order, "high") }})
	e.Run(0)
	c.Release(fill[0])
	c.Release(fill[1])
	e.Run(e.Now())
	if len(order) != 2 || order[0] != "high" || order[1] != "low" {
		t.Fatalf("grant order = %v, want [high low]", order)
	}
}

func TestCancelRequest(t *testing.T) {
	e, c := rig()
	var fill []*Container
	for i := 0; i < 6; i++ {
		c.Allocate(&Request{MemMB: 4096, Grant: func(ct *Container) { fill = append(fill, ct) }})
	}
	e.Run(0)
	granted := false
	cancel := c.Allocate(&Request{MemMB: 4096, Grant: func(*Container) { granted = true }})
	cancel()
	c.Release(fill[0])
	e.Run(e.Now())
	if granted {
		t.Fatal("canceled request was granted")
	}
}

func TestNodeExpiryDeclaresLost(t *testing.T) {
	e, c := rig()
	var lost []topology.NodeID
	c.AddNodeLostListener(func(id topology.NodeID) { lost = append(lost, id) })
	var ct *Container
	killed := ""
	c.Allocate(&Request{MemMB: 1024, Preferred: []topology.NodeID{2}, Grant: func(g *Container) {
		ct = g
		g.OnKill = func(reason string) { killed = reason }
	}})
	e.Run(0)
	if ct == nil || ct.Node != 2 {
		t.Fatalf("setup failed: %+v", ct)
	}
	c.StopNetwork(2)
	e.Run(30 * time.Second)
	if len(lost) != 1 || lost[0] != 2 {
		t.Fatalf("lost = %v, want [2]", lost)
	}
	if killed == "" {
		t.Fatal("container OnKill not invoked on node loss")
	}
	if c.NodeUsable(2) {
		t.Fatal("lost node still usable")
	}
	// Exactly once.
	e.Run(60 * time.Second)
	if len(lost) != 1 {
		t.Fatalf("node declared lost %d times, want once", len(lost))
	}
}

func TestExpiryTiming(t *testing.T) {
	e, c := rig()
	var lostAt sim.Time = -1
	c.AddNodeLostListener(func(topology.NodeID) { lostAt = e.Now() })
	e.Run(5 * time.Second)
	c.StopNetwork(0)
	e.Run(60 * time.Second)
	if lostAt < 0 {
		t.Fatal("node never declared lost")
	}
	// Expiry window is 10s from last heartbeat (at 5s) -> ~15s, +1 tick.
	if lostAt < 14*time.Second || lostAt > 17*time.Second {
		t.Fatalf("declared lost at %v, want ~15-16s", lostAt)
	}
}

func TestCrashDropsDFSReplicas(t *testing.T) {
	e, c := rig()
	f, err := c.DFS.AddFile("input", 100, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	only := f.Blocks[0].Replicas[0]
	c.Crash(only)
	if len(f.Blocks[0].Replicas) != 0 {
		t.Fatalf("replicas survive crash: %v", f.Blocks[0].Replicas)
	}
	if c.NodeAlive(only) {
		t.Fatal("crashed node reports alive")
	}
	_ = e
}

func TestStopNetworkKeepsProcessAlive(t *testing.T) {
	_, c := rig()
	c.StopNetwork(3)
	if !c.NodeAlive(3) {
		t.Fatal("network stop should not kill the process")
	}
	if c.NodeReachable(3) {
		t.Fatal("network-stopped node should be unreachable")
	}
	if c.NodeUsable(3) {
		t.Fatal("network-stopped node should not receive containers")
	}
}

func TestRestore(t *testing.T) {
	e, c := rig()
	c.StopNetwork(1)
	e.Run(30 * time.Second)
	c.Restore(1)
	if !c.NodeUsable(1) {
		t.Fatal("restored node unusable")
	}
	var got *Container
	c.Allocate(&Request{MemMB: 1024, Preferred: []topology.NodeID{1}, Grant: func(ct *Container) { got = ct }})
	e.Run(e.Now())
	if got == nil || got.Node != 1 {
		t.Fatalf("allocation on restored node failed: %+v", got)
	}
}

func TestLostNodeNotPicked(t *testing.T) {
	e, c := rig()
	c.StopNetwork(5)
	e.Run(30 * time.Second)
	for i := 0; i < 12; i++ {
		c.Allocate(&Request{MemMB: 1024, Preferred: []topology.NodeID{5}, Grant: func(ct *Container) {
			if ct.Node == 5 {
				t.Fatal("container placed on lost node")
			}
		}})
	}
	e.Run(e.Now())
}

func TestRestoreAfterLostReadmits(t *testing.T) {
	e, c := rig()
	c.StopNetwork(2)
	e.Run(30 * time.Second) // NodeExpiry is 10s in rig(): node 2 is declared lost
	if c.NodeUsable(2) {
		t.Fatal("lost node still usable")
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatalf("conservation broken while node lost: %v", err)
	}
	c.Restore(2)
	if !c.NodeUsable(2) {
		t.Fatal("healed node not re-admitted")
	}
	var got *Container
	c.Allocate(&Request{MemMB: 1024, Preferred: []topology.NodeID{2}, Grant: func(ct *Container) { got = ct }})
	e.Run(e.Now())
	if got == nil || got.Node != 2 {
		t.Fatalf("allocation on re-admitted node failed: %+v", got)
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatalf("conservation broken after re-admission: %v", err)
	}
}

func TestConservationAcrossFaultChurn(t *testing.T) {
	e, c := rig()
	var cts []*Container
	for i := 0; i < 4; i++ {
		c.Allocate(&Request{MemMB: 1024, Grant: func(ct *Container) { cts = append(cts, ct) }})
	}
	e.Run(0)
	c.StopNetwork(0)
	c.Crash(1)
	e.Run(30 * time.Second) // node 0 declared lost; both had containers killed
	c.Restore(0)
	for _, ct := range cts {
		c.Release(ct) // releasing already-killed containers must not double-count
	}
	e.Run(e.Now())
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestConservationDetectsLeak(t *testing.T) {
	_, c := rig()
	c.nodes[3].freeMemMB -= 7
	if err := c.CheckConservation(); err == nil {
		t.Fatal("tampered free-memory accounting not detected")
	}
}

func TestRestoreDisksHeals(t *testing.T) {
	e, c := rig()
	baseline := func() time.Duration {
		done := sim.Time(-1)
		start := e.Now()
		c.Disks.ReadWrite(4, 1000, func() { done = e.Now() })
		e.Run(start + sim.Time(5*time.Minute))
		if done < 0 {
			t.Fatal("merge pass never completed")
		}
		return time.Duration(done - start)
	}
	t0 := baseline()
	c.SlowDisks(4, 0.1)
	t1 := baseline()
	c.RestoreDisks(4)
	t2 := baseline()
	if t1 <= t0*5 {
		t.Fatalf("degraded merge pass not slower: %v vs %v", t1, t0)
	}
	if t2 != t0 {
		t.Fatalf("healed merge pass time %v differs from baseline %v", t2, t0)
	}
}

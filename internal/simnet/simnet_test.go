package simnet

import (
	"fmt"
	"math"
	"testing"
	"time"

	"alm/internal/fairshare"
	"alm/internal/sim"
	"alm/internal/topology"
)

func testTopo() *topology.Topology {
	hw := topology.Hardware{NICBandwidth: 100, DiskReadBW: 100, DiskWriteBW: 100, MemoryMB: 1024, Cores: 4}
	return topology.MustNew(topology.Options{Racks: 2, NodesPerRack: 3, HW: hw, Oversubscription: 1.5})
}

// transfer starts a bytes-long flow from src to dst over the ports
// PortsFor names, invoking done on completion. Local transfers (src ==
// dst) cross no port and complete at once.
func transfer(n *Network, src, dst topology.NodeID, bytes int64, done func()) fairshare.Flow {
	return n.System().StartFlow(fmt.Sprintf("xfer:%d->%d", src, dst), bytes, n.PortsFor(src, dst), 0, done)
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestIntraRackTransferTime(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, testTopo())
	var done sim.Time = -1
	transfer(n, 0, 1, 1000, func() { done = e.Now() })
	e.RunAll()
	if !almostEqual(done.Seconds(), 10, 0.05) {
		t.Fatalf("transfer completed at %v, want ~10s at 100 B/s", done)
	}
}

func TestLocalTransferIsFree(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, testTopo())
	var done sim.Time = -1
	transfer(n, 0, 0, 1e9, func() { done = e.Now() })
	e.RunAll()
	if done != 0 {
		t.Fatalf("local transfer took %v, want 0 (no network ports crossed)", done)
	}
}

func TestCrossRackUplinkContention(t *testing.T) {
	// Rack uplink = 3 nodes * 100 / 1.5 = 200 B/s. Three cross-rack flows
	// from distinct sources to distinct destinations share the 200 B/s
	// uplink at ~66.7 each instead of their NIC's 100.
	e := sim.NewEngine(1)
	n := New(e, testTopo())
	var completions []sim.Time
	for i := 0; i < 3; i++ {
		transfer(n, topology.NodeID(i), topology.NodeID(3+i), 1000, func() {
			completions = append(completions, e.Now())
		})
	}
	e.RunAll()
	if len(completions) != 3 {
		t.Fatalf("got %d completions, want 3", len(completions))
	}
	want := 1000.0 / (200.0 / 3)
	for _, c := range completions {
		if !almostEqual(c.Seconds(), want, 0.1) {
			t.Fatalf("completion at %v, want ~%.1fs (uplink-bound)", c, want)
		}
	}
}

func TestIngressContention(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, testTopo())
	var completions []sim.Time
	for i := 1; i <= 2; i++ {
		transfer(n, topology.NodeID(i), 0, 500, func() { completions = append(completions, e.Now()) })
	}
	e.RunAll()
	for _, c := range completions {
		if !almostEqual(c.Seconds(), 10, 0.1) {
			t.Fatalf("completion at %v, want ~10s (two flows share dst ingress)", c)
		}
	}
}

func TestNodeDownStallsAndReachability(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, testTopo())
	done := false
	transfer(n, 0, 1, 1000, func() { done = true })
	e.Run(5 * time.Second)
	n.SetNodeDown(1)
	if n.Reachable(0, 1) || n.Reachable(1, 0) {
		t.Fatal("down node should be unreachable in both directions")
	}
	if !n.Reachable(0, 2) {
		t.Fatal("unrelated pair should stay reachable")
	}
	e.Run(60 * time.Second)
	if done {
		t.Fatal("transfer completed into a dead node")
	}
	n.SetNodeUp(1)
	e.RunAll()
	if !done {
		t.Fatal("transfer did not resume after node recovery")
	}
	if !n.Reachable(0, 1) {
		t.Fatal("node should be reachable after SetNodeUp")
	}
}

func TestSelfReachabilityWhenDown(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, testTopo())
	n.SetNodeDown(2)
	if n.Reachable(2, 2) {
		t.Fatal("a network-dead node cannot even loop back")
	}
}

func TestPortsForComposition(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, testTopo())
	if got := len(n.PortsFor(0, 0)); got != 0 {
		t.Fatalf("local PortsFor = %d ports, want 0", got)
	}
	if got := len(n.PortsFor(0, 1)); got != 2 {
		t.Fatalf("intra-rack PortsFor = %d ports, want 2", got)
	}
	if got := len(n.PortsFor(0, 3)); got != 4 {
		t.Fatalf("cross-rack PortsFor = %d ports, want 4", got)
	}
}

func TestAttemptFailsWithoutFlakyLinksDrawsNothing(t *testing.T) {
	// Two engines with the same seed: consuming AttemptFails on one must
	// not advance its RNG when no link is flaky, or every existing
	// scenario's event stream would shift.
	e1, e2 := sim.NewEngine(7), sim.NewEngine(7)
	n := New(e1, testTopo())
	for i := 0; i < 5; i++ {
		if n.AttemptFails(0, 1, e1.Rand()) {
			t.Fatal("attempt failed with no flaky links")
		}
	}
	if a, b := e1.Rand().Int63(), e2.Rand().Int63(); a != b {
		t.Fatalf("AttemptFails consumed randomness on a clean network: %d vs %d", a, b)
	}
}

func TestFlakyLinkFailureProbabilityEdges(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, testTopo())
	n.SetLinkFlaky(0, 1, 1.0, 1.0)
	// Probability 1.0: every attempt fails, both directions.
	for i := 0; i < 10; i++ {
		if !n.AttemptFails(0, 1, e.Rand()) || !n.AttemptFails(1, 0, e.Rand()) {
			t.Fatal("attempt survived a p=1.0 flaky link")
		}
	}
	// Other pairs are untouched.
	if n.AttemptFails(0, 2, e.Rand()) {
		t.Fatal("attempt failed on a clean link")
	}
	n.SetLinkFlaky(0, 1, 0.0, 1.0)
	for i := 0; i < 10; i++ {
		if n.AttemptFails(0, 1, e.Rand()) {
			t.Fatal("attempt failed on a p=0.0 flaky link")
		}
	}
	if !n.LinkFlaky(0, 1) {
		t.Fatal("link not tracked as flaky")
	}
	n.HealLink(0, 1)
	if n.LinkFlaky(0, 1) {
		t.Fatal("healed link still flaky")
	}
}

func TestFlakyLinkBandwidthCap(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, testTopo())
	n.SetLinkFlaky(0, 1, 0, 0.5) // 50 B/s on a 100 B/s NIC pair
	var done sim.Time = -1
	transfer(n, 0, 1, 1000, func() { done = e.Now() })
	e.RunAll()
	if !almostEqual(done.Seconds(), 20, 0.1) {
		t.Fatalf("capped transfer completed at %v, want ~20s at 50 B/s", done)
	}
	n.HealLink(0, 1)
	start := e.Now()
	transfer(n, 0, 1, 1000, func() { done = e.Now() })
	e.RunAll()
	if got := (done - start).Seconds(); !almostEqual(got, 10, 0.1) {
		t.Fatalf("healed transfer took %vs, want ~10s at full NIC rate", got)
	}
}

func TestNICDegradeAndHeal(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, testTopo())
	n.SetNICFactor(0, 0.25) // 25 B/s
	var done sim.Time = -1
	transfer(n, 0, 1, 1000, func() { done = e.Now() })
	e.RunAll()
	if !almostEqual(done.Seconds(), 40, 0.2) {
		t.Fatalf("degraded transfer completed at %v, want ~40s at 25 B/s", done)
	}
	// A node bounce must come back at the degraded rate, not silently
	// restore full bandwidth.
	n.SetNodeDown(0)
	n.SetNodeUp(0)
	start := e.Now()
	transfer(n, 0, 1, 1000, func() { done = e.Now() })
	e.RunAll()
	if got := (done - start).Seconds(); !almostEqual(got, 40, 0.2) {
		t.Fatalf("bounced NIC transfer took %vs, want ~40s (factor preserved)", got)
	}
	n.SetNICFactor(0, 1)
	start = e.Now()
	transfer(n, 0, 1, 1000, func() { done = e.Now() })
	e.RunAll()
	if got := (done - start).Seconds(); !almostEqual(got, 10, 0.1) {
		t.Fatalf("healed NIC transfer took %vs, want ~10s", got)
	}
}

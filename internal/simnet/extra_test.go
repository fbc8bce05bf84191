package simnet

import (
	"testing"
	"time"

	"alm/internal/sim"
)

func TestSetNodeDownIdempotent(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, testTopo())
	n.SetNodeDown(0)
	n.SetNodeDown(0) // second call is a no-op
	if !n.NodeDown(0) {
		t.Fatal("node should be down")
	}
	n.SetNodeUp(0)
	n.SetNodeUp(0) // idempotent
	if n.NodeDown(0) {
		t.Fatal("node should be up")
	}
}

func TestPortAccessors(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, testTopo())
	if n.IngressPort(1) == nil || n.EgressPort(1) == nil {
		t.Fatal("port accessors returned nil")
	}
	if n.IngressPort(1).Capacity() != 100 {
		t.Fatalf("ingress capacity = %v, want 100", n.IngressPort(1).Capacity())
	}
	if n.System() == nil {
		t.Fatal("System() returned nil")
	}
}

func TestConcurrentBidirectionalTransfers(t *testing.T) {
	// Full duplex: a transfer each way between two nodes should not
	// contend (separate ingress/egress ports).
	e := sim.NewEngine(1)
	n := New(e, testTopo())
	var d1, d2 sim.Time
	transfer(n, 0, 1, 1000, func() { d1 = e.Now() })
	transfer(n, 1, 0, 1000, func() { d2 = e.Now() })
	e.RunAll()
	if d1 > 11*time.Second || d2 > 11*time.Second {
		t.Fatalf("bidirectional transfers contended: %v %v (want ~10s each)", d1, d2)
	}
}

func TestTransferNilCallback(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, testTopo())
	f := transfer(n, 0, 1, 100, nil)
	e.RunAll()
	if !f.Done() {
		t.Fatal("transfer with nil callback should still complete")
	}
}

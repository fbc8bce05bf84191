package simdisk

import (
	"math"
	"testing"

	"alm/internal/fairshare"
	"alm/internal/sim"
	"alm/internal/topology"
)

func testTopo() *topology.Topology {
	hw := topology.Hardware{NICBandwidth: 1000, DiskReadBW: 100, DiskWriteBW: 50, MemoryMB: 1024, Cores: 4}
	return topology.MustNew(topology.Options{Racks: 1, NodesPerRack: 2, HW: hw})
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// read starts a flow over a node's disk read port alone, the way the
// engine's reads do as part of composite flows.
func read(d *Disks, id topology.NodeID, bytes int64, done func()) {
	d.sys.StartFlow("read", bytes, []*fairshare.Port{d.ReadPort(id)}, 0, done)
}

func TestReadBandwidth(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, testTopo(), nil)
	var done sim.Time = -1
	read(d, 0, 1000, func() { done = e.Now() })
	e.RunAll()
	if !almostEqual(done.Seconds(), 10, 0.05) {
		t.Fatalf("read completed at %v, want ~10s at 100 B/s", done)
	}
}

func TestWriteBandwidth(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, testTopo(), nil)
	var done sim.Time = -1
	d.Write(0, 1000, func() { done = e.Now() })
	e.RunAll()
	if !almostEqual(done.Seconds(), 20, 0.05) {
		t.Fatalf("write completed at %v, want ~20s at 50 B/s", done)
	}
}

func TestReadsContendWritesDoNot(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, testTopo(), nil)
	var readDone, writeDone sim.Time
	read(d, 0, 500, func() { readDone = e.Now() })
	read(d, 0, 500, nil)
	d.Write(0, 500, func() { writeDone = e.Now() })
	e.RunAll()
	// Two reads share 100 B/s -> 10s each; write runs alone at 50 -> 10s.
	if !almostEqual(readDone.Seconds(), 10, 0.1) {
		t.Fatalf("read completed at %v, want ~10s", readDone)
	}
	if !almostEqual(writeDone.Seconds(), 10, 0.1) {
		t.Fatalf("write completed at %v, want ~10s", writeDone)
	}
}

func TestReadWriteCrossesBothPorts(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, testTopo(), nil)
	var done sim.Time
	d.ReadWrite(0, 1000, func() { done = e.Now() })
	e.RunAll()
	// Limited by the slower (write) port: 1000/50 = 20s.
	if !almostEqual(done.Seconds(), 20, 0.1) {
		t.Fatalf("merge pass completed at %v, want ~20s (write-bound)", done)
	}
}

func TestNodesAreIndependent(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, testTopo(), nil)
	var d0, d1 sim.Time
	read(d, 0, 1000, func() { d0 = e.Now() })
	read(d, 1, 1000, func() { d1 = e.Now() })
	e.RunAll()
	if !almostEqual(d0.Seconds(), 10, 0.05) || !almostEqual(d1.Seconds(), 10, 0.05) {
		t.Fatalf("independent nodes interfered: %v %v", d0, d1)
	}
}

func TestAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, testTopo(), nil)
	d.Write(0, 200, nil)
	d.ReadWrite(0, 50, nil)
	e.RunAll()
	if d.BytesRead[0] != 50 {
		t.Fatalf("BytesRead = %d, want 50", d.BytesRead[0])
	}
	if d.BytesWritten[0] != 250 {
		t.Fatalf("BytesWritten = %d, want 250", d.BytesWritten[0])
	}
}

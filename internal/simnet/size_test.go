package simnet

import (
	"runtime"
	"testing"

	"alm/internal/metrics"
	"alm/internal/sim"
	"alm/internal/topology"
)

// A network's memory must grow with nodes, not nodes²: building and
// instrumenting a 4,000-node network takes a per-node port pair and a
// handful of counters, where a per-link counter table alone took 128 MB.
func TestNetworkSizeLinear(t *testing.T) {
	const limit = 2 << 20
	topo := topology.MustNew(topology.Options{Racks: 200, NodesPerRack: 20})
	e := sim.NewEngine(1)
	reg := metrics.NewRegistry()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := New(e, topo)
	n.SetMetrics(reg)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(n)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("New + SetMetrics at %d nodes allocated %d bytes", topo.NumNodes(), got)
	if got >= limit {
		t.Fatalf("New + SetMetrics at %d nodes allocated %d bytes, want < %d", topo.NumNodes(), got, limit)
	}
}

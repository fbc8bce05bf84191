package fairshare

import (
	"fmt"
	"math/rand"
	"testing"

	"alm/internal/sim"
)

// BenchmarkManyFlows measures the flow-level simulation with a shuffle-
// like pattern: 200 flows across 40 ports, arriving and completing
// continuously.
func BenchmarkManyFlows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine(1)
		s := NewSystem(e)
		ports := make([]*Port, 40)
		for p := range ports {
			ports[p] = s.NewPort(fmt.Sprintf("p%d", p), 1000)
		}
		for f := 0; f < 200; f++ {
			src := ports[f%40]
			dst := ports[(f*7+3)%40]
			s.StartFlow("f", int64(1000+f*37), []*Port{src, dst}, 0, nil)
		}
		e.RunAll()
	}
}

// touchAll marks every port changed, so the next allocate is a pass over
// the whole system.
func touchAll(s *System, ports []*Port) {
	for _, p := range ports {
		s.touch(p)
	}
}

// BenchmarkAllocate measures one whole-system max-min fair allocation
// pass with 100 active flows.
func BenchmarkAllocate(b *testing.B) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	ports := make([]*Port, 20)
	for p := range ports {
		ports[p] = s.NewPort(fmt.Sprintf("p%d", p), 1000)
	}
	for f := 0; f < 100; f++ {
		s.StartFlow("f", 1e12, []*Port{ports[f%20], ports[(f+7)%20]}, 0, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		touchAll(s, ports)
		s.allocate()
	}
}

// BenchmarkAllocateWide measures one whole-system allocation pass shaped
// like a 1000-node run's: 580 live ports — NIC, disk and rack-uplink
// ports with a spread of capacities, many of them equal — and 270 flows
// over 2–4 ports each.
func BenchmarkAllocateWide(b *testing.B) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	rng := rand.New(rand.NewSource(1))
	kinds := []struct {
		suffix   string
		capacity float64
	}{{"in", 1.25e9}, {"out", 1.25e9}, {"disk-r", 5e8}, {"disk-w", 3e8}}
	ports := make([]*Port, 0, 580)
	for i := 0; i < 30; i++ {
		ports = append(ports, s.NewPort(fmt.Sprintf("rack-%d/uplink", i), 2.5e9*float64(1+i%3)))
	}
	for i := 0; len(ports) < 580; i++ {
		k := kinds[i%len(kinds)]
		capacity := k.capacity
		if i%7 == 0 {
			capacity *= 0.5 + rng.Float64() // a degraded or faster device
		}
		ports = append(ports, s.NewPort(fmt.Sprintf("node-%03d/%s", i/len(kinds), k.suffix), capacity))
	}
	sel := make([]*Port, 0, 4)
	for f := 0; f < 270; f++ {
		sel = sel[:0]
		for n := 2 + rng.Intn(3); len(sel) < n; {
			sel = append(sel, ports[rng.Intn(len(ports))])
		}
		s.StartFlow("xfer", 1e15, sel, 0, nil)
	}
	before := s.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		touchAll(s, ports)
		s.allocate()
	}
	reportPerPass(b, before, s.Stats())
}

// reportPerPass reports the rounds, flows and keyed ports an average
// pass allocated between two Stats readings.
func reportPerPass(b *testing.B, before, after Stats) {
	passes := float64(after.Passes - before.Passes)
	b.ReportMetric(float64(after.Rounds-before.Rounds)/passes, "rounds/pass")
	b.ReportMetric(float64(after.Flows-before.Flows)/passes, "flows/pass")
	b.ReportMetric(float64(after.Ports-before.Ports)/passes, "ports/pass")
}

// BenchmarkAllocateFetchMesh measures one whole-system allocation pass
// over a shuffle's fetch mesh on the 1000-node geometry (50 racks of 20
// nodes, 5:1 oversubscribed uplinks, default hardware): 100 reducers,
// each with 5 parallel fetches from map hosts in other racks. A fetch
// crosses its source's disk-read and NIC-out ports, the reducer's
// shuffle-CPU port, the reducer node's NIC-in port and both rack
// uplinks. 450 map hosts serve the 500 fetches, so most sources serve
// one and both their ports are solo: only the lesser is keyed.
func BenchmarkAllocateFetchMesh(b *testing.B) {
	const (
		racks, perRack = 50, 20
		reducers       = 100
		fetches        = 5
		sources        = 450
	)
	e := sim.NewEngine(1)
	s := NewSystem(e)
	var ports []*Port
	port := func(name string, capacity float64) *Port {
		p := s.NewPort(name, capacity)
		ports = append(ports, p)
		return p
	}
	uplinks := make([]*Port, racks)
	for r := range uplinks {
		uplinks[r] = port(fmt.Sprintf("rack-%d/uplink", r), 1.25e9*perRack/5)
	}
	// Map hosts are the even nodes from 100 up (racks 5–49); reducers
	// run on nodes 0–99 (racks 0–4).
	type host struct {
		node      int
		disk, out *Port
	}
	hosts := make([]host, sources)
	for i := range hosts {
		n := 100 + 2*i
		hosts[i] = host{n, port(fmt.Sprintf("node-%02d/disk-r", n), 450e6), port(fmt.Sprintf("node-%02d/out", n), 1.25e9)}
	}
	for r := 0; r < reducers; r++ {
		shuffle := port(fmt.Sprintf("r_%03d_0/shuffle-cpu", r), 60e6)
		in := port(fmt.Sprintf("node-%02d/in", r), 1.25e9)
		for k := 0; k < fetches; k++ {
			h := hosts[(r*fetches+k)%sources]
			s.StartFlow("fetch", 1e15, []*Port{h.disk, shuffle, h.out, in, uplinks[h.node/perRack], uplinks[r/perRack]}, 0, nil)
		}
	}
	before := s.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		touchAll(s, ports)
		s.allocate()
	}
	reportPerPass(b, before, s.Stats())
}

// BenchmarkAllocateComponents measures the per-event work of many
// independent transfers: 500 disjoint NIC pairs, each carrying a
// long-lived bulk flow and a chain of fetches, where every completion
// starts the pair's next fetch. Each op is one engine event that finishes
// one flow and starts one, so its pass allocates only that pair's
// component, whatever the number of pairs.
func BenchmarkAllocateComponents(b *testing.B) {
	const pairs = 500
	e := sim.NewEngine(1)
	s := NewSystem(e)
	started := 0
	type pair struct {
		ports []*Port
		bytes int64
		next  func()
	}
	ps := make([]pair, pairs)
	for i := range ps {
		p := &ps[i]
		p.ports = []*Port{
			s.NewPort(fmt.Sprintf("node-%03d/out", i), 1.25e9),
			s.NewPort(fmt.Sprintf("node-%03d/in", pairs+i), 1.25e9),
		}
		// Distinct sizes keep completions in separate events.
		p.bytes = int64(64<<20 + 4099*i)
		p.next = func() {
			started++
			s.StartFlow("fetch", p.bytes, p.ports, 0, p.next)
		}
		s.StartFlow("bulk", 1e18, p.ports, 0, nil)
		p.next()
	}
	before := s.Stats()
	b.ResetTimer()
	for started < pairs+b.N {
		e.Step()
	}
	b.StopTimer()
	reportPerPass(b, before, s.Stats())
}

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

// reportPerPass reports the rounds and flows an average pass allocated
// between two Stats readings.
func reportPerPass(b *testing.B, before, after Stats) {
	passes := float64(after.Passes - before.Passes)
	b.ReportMetric(float64(after.Rounds-before.Rounds)/passes, "rounds/pass")
	b.ReportMetric(float64(after.Flows-before.Flows)/passes, "flows/pass")
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

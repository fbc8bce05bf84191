package fairshare

import (
	"math"
	"testing"
	"time"
	"unsafe"

	"alm/internal/sim"
)

// TestUntouchedComponentKeepsRates: with two disjoint components, a
// change to one allocates exactly that component's flows, and the other
// component's rates stay bit-identical.
func TestUntouchedComponentKeepsRates(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	aOut, aIn := s.NewPort("node-01/out", 1.25e9), s.NewPort("node-02/in", 1.25e9)
	bOut, bIn := s.NewPort("node-03/out", 1000), s.NewPort("node-04/in", 1000.0/3)
	bDisk := s.NewPort("node-04/disk-w", 250)
	s.StartFlow("a", 1e12, []*Port{aOut, aIn}, 0, nil)
	b := []Flow{
		s.StartFlow("b", 1e12, []*Port{bOut, bIn}, 0, nil),
		s.StartFlow("b", 1e12, []*Port{bOut, bDisk}, 0, nil),
		s.StartFlow("b", 1e12, []*Port{bIn, bDisk}, 100, nil),
	}
	rates := make([]uint64, len(b))
	for i, f := range b {
		rates[i] = math.Float64bits(f.Rate())
	}
	before := s.Stats()
	a2 := s.StartFlow("a", 1e12, []*Port{aIn}, 0, nil)
	if got := s.Stats().Flows - before.Flows; got != 2 {
		t.Fatalf("starting a flow in a two-flow component allocated %d flows, want 2", got)
	}
	before = s.Stats()
	aOut.SetCapacity(5e8)
	a2.Cancel()
	// The capacity change allocates both flows of the component, the
	// cancel the one it leaves.
	if got := s.Stats().Flows - before.Flows; got != 2+1 {
		t.Fatalf("a capacity change and a cancel allocated %d flows, want 2+1", got)
	}
	for i, f := range b {
		if got := math.Float64bits(f.Rate()); got != rates[i] {
			t.Fatalf("untouched flow %d rate %v, was %v", i, f.Rate(), math.Float64frombits(rates[i]))
		}
	}
}

// TestCapRemovalLeavesUnconstrainedFlow: a flow whose only link is its
// rate cap has no port left once the cap goes, so no pass reaches it. It
// must run unconstrained, inside an event as well as outside, and count
// in no pass.
func TestCapRemovalLeavesUnconstrainedFlow(t *testing.T) {
	for _, inEvent := range []bool{false, true} {
		e := sim.NewEngine(1)
		s := NewSystem(e)
		p := s.NewPort("p", 1000)
		other := s.StartFlow("g", 1e6, []*Port{p}, 0, nil)
		var done sim.Time = -1
		f := s.StartFlow("f", 1e6, nil, 100, func() { done = e.Now() })
		e.Run(time.Second)
		if f.Rate() != 100 {
			t.Fatalf("capped flow rate %v, want 100", f.Rate())
		}
		before := s.Stats()
		if inEvent {
			e.Schedule(0, func() { f.SetPriorityCap(0) })
			e.Run(e.Now())
		} else {
			f.SetPriorityCap(0)
		}
		if got := f.Rate(); got != math.MaxFloat64/4 {
			t.Fatalf("in event %v: uncapped flow without ports has rate %v, want MaxFloat64/4", inEvent, got)
		}
		if got := s.Stats().Flows - before.Flows; got != 0 {
			t.Fatalf("in event %v: removing the cap allocated %d flows, want 0", inEvent, got)
		}
		e.Run(e.Now() + 1)
		if done != time.Second+1 {
			t.Fatalf("in event %v: uncapped flow completed at %v, want %v", inEvent, done, time.Second+1)
		}
		if other.Rate() != 1000 {
			t.Fatalf("in event %v: the other component's flow runs at %v, want 1000", inEvent, other.Rate())
		}
	}
}

// TestFlowSizeClass keeps flow storage in the 112 B allocation size
// class, as the comments on flow.epoch, flow.dead and flow.gen claim: one
// more word moved it to 128 B and raised the paper sweep's peak RSS by
// about 4%.
func TestFlowSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(flow{}); n > 112 {
		t.Fatalf("flow is %d B, over the 112 B size class", n)
	}
}

// TestPassTagWrap runs passes across the wrap of the flows' 32-bit pass
// tags and checks every rate against a system that never wraps.
func TestPassTagWrap(t *testing.T) {
	var sys [2]*System
	var flows [2][]Flow
	var ports [2][]*Port
	for i := range sys {
		sys[i] = NewSystem(sim.NewEngine(1))
		for _, c := range []float64{100, 300, 1000} {
			ports[i] = append(ports[i], sys[i].NewPort("p", c))
		}
	}
	// The next passes of sys[1] carry tags 2^32-2, 2^32-1, then wrap.
	sys[1].allocEpoch = 1<<32 - 3
	for step := 0; step < 6; step++ {
		for i, s := range sys {
			ps := ports[i]
			flows[i] = append(flows[i], s.StartFlow("f", 1e9, []*Port{ps[step%3], ps[(step+1)%3]}, 0, nil))
		}
		for k := range flows[0] {
			if a, b := flows[0][k].Rate(), flows[1][k].Rate(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("step %d flow %d: rate %v across the wrap, %v without", step, k, b, a)
			}
		}
	}
	if sys[0].Stats() != sys[1].Stats() {
		t.Fatalf("stats %+v across the wrap, %+v without", sys[1].Stats(), sys[0].Stats())
	}
}

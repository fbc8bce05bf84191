package fairshare

import (
	"math"
	"testing"
	"time"

	"alm/internal/sim"
)

// TestHandleEnds: a handle reads Ended once its flow completes, already
// inside the completion callback, and once it is canceled; an ended
// handle reports no rate, no bytes and no name.
func TestHandleEnds(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("p", 100)
	var done, canceled Flow
	endedInCallback := false
	done = s.StartFlow("done", 100, []*Port{p}, 0, func() { endedInCallback = done.Ended() })
	canceled = s.StartFlow("canceled", 1e6, []*Port{p}, 0, nil)
	if done.Ended() || canceled.Ended() {
		t.Fatal("running flows read ended")
	}
	e.Run(time.Second)
	canceled.Cancel()
	e.RunAll()
	if !endedInCallback {
		t.Fatal("a completed flow's handle does not read ended in its callback")
	}
	for _, h := range []Flow{done, canceled, {}} {
		if !h.Ended() || h.Rate() != 0 || h.Remaining() != 0 || h.Name() != "" {
			t.Fatalf("ended handle: ended %v, rate %v, remaining %v, name %q", h.Ended(), h.Rate(), h.Remaining(), h.Name())
		}
	}
}

// TestStaleHandleLeavesReuseAlone: once a flow ends, its storage runs the
// next flow the System starts. Cancel and SetPriorityCap through the old
// handle must not reach the new flow.
func TestStaleHandleLeavesReuseAlone(t *testing.T) {
	for _, end := range []string{"complete", "cancel"} {
		e := sim.NewEngine(1)
		s := NewSystem(e)
		p := s.NewPort("p", 100)
		old := s.StartFlow("old", 100, []*Port{p}, 50, nil)
		if end == "cancel" {
			old.Cancel()
		}
		e.RunAll()
		cur := s.StartFlow("cur", 1000, []*Port{p}, 0, nil)
		if cur.f != old.f {
			t.Fatalf("%s: the System did not reuse the ended flow's storage", end)
		}
		e.Run(e.Now() + time.Second)
		old.Cancel()
		old.SetPriorityCap(5)
		old.SetPriorityCap(0)
		if cur.Ended() || cur.Name() != "cur" || cur.Rate() != 100 || cur.Remaining() != 900 ||
			cur.f.capPort != nil || len(cur.f.links) != 1 || s.ActiveFlows() != 1 {
			t.Fatalf("%s: after pokes through the stale handle the running flow reads ended %v, name %q, rate %v, remaining %v, cap port %v, %d links, %d flows",
				end, cur.Ended(), cur.Name(), cur.Rate(), cur.Remaining(), cur.f.capPort, len(cur.f.links), s.ActiveFlows())
		}
	}
}

// TestRecycledFlowStaleEpoch: a pass skips a flow whose tag equals its
// own, so recycled storage must not carry the tag of the last pass that
// gathered it. The test rewinds the pass counter so the next pass reuses
// that tag (as the 32-bit tags do after a wrap, which clears only the
// tags of running flows) and checks the new flow against the oracle.
func TestRecycledFlowStaleEpoch(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("p", 100)
	old := s.StartFlow("f", 1e6, []*Port{p}, 0, nil)
	tag := old.f.epoch
	if tag == 0 {
		t.Fatal("the first pass did not tag the flow")
	}
	old.Cancel()
	s.allocEpoch = uint64(tag) - 1
	cur := s.StartFlow("g", 1e6, []*Port{p}, 0, nil)
	if cur.f != old.f || uint32(s.allocEpoch) != tag {
		t.Fatalf("setup: reused %v, pass tag %d, want the old flow's %d", cur.f == old.f, uint32(s.allocEpoch), tag)
	}

	oe := sim.NewEngine(1)
	o := newOracleSystem(oe)
	op := o.NewPort("p", 100)
	o.StartFlow("f", 1e6, []*oraclePort{op}, 0, nil).Cancel()
	want := o.StartFlow("g", 1e6, []*oraclePort{op}, 0, nil).Rate()
	if got := cur.Rate(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("recycled flow rate %v, oracle %v", got, want)
	}
}

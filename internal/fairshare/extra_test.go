package fairshare

import (
	"math"
	"strings"
	"testing"
	"time"

	"alm/internal/sim"
)

func TestPortAccessorsAndNames(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("mine", 42)
	if p.Name() != "mine" || p.Capacity() != 42 {
		t.Fatalf("accessors: %q %v", p.Name(), p.Capacity())
	}
	if p.ActiveFlows() != 0 {
		t.Fatal("fresh port should have no flows")
	}
	f := s.StartFlow("f", 100, []*Port{p}, 0, nil)
	if p.ActiveFlows() != 1 || s.ActiveFlows() != 1 {
		t.Fatal("flow not registered on port/system")
	}
	if f.Name() != "f" {
		t.Fatalf("flow name %q", f.Name())
	}
	e.RunAll()
	if p.ActiveFlows() != 0 || s.ActiveFlows() != 0 {
		t.Fatal("flow not deregistered after completion")
	}
}

func TestNegativeCapacityClamped(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("p", 100)
	p.SetCapacity(-5)
	if p.Capacity() != 0 {
		t.Fatalf("negative capacity should clamp to 0, got %v", p.Capacity())
	}
	p.SetCapacity(0) // no-op path (already 0)
}

func TestNewPortPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative port capacity")
		}
	}()
	e := sim.NewEngine(1)
	NewSystem(e).NewPort("bad", -1)
}

// TestNaNCapacityPanics: a NaN capacity or rate cap would break the
// total key order of the bottleneck heap, so each entry point that sets
// one panics, names the port, and leaves the system as it was.
func TestNaNCapacityPanics(t *testing.T) {
	s := NewSystem(sim.NewEngine(1))
	p := s.NewPort("node-01/in", 100)
	f := s.StartFlow("xfer", 1000, []*Port{p}, 10, nil)
	for _, c := range []struct {
		name, port string
		call       func()
	}{
		{"NewPort", "bad", func() { s.NewPort("bad", math.NaN()) }},
		{"SetCapacity", "node-01/in", func() { p.SetCapacity(math.NaN()) }},
		{"SetPriorityCap", "xfer/cap", func() { f.SetPriorityCap(math.NaN()) }},
		{"StartFlow", "dmerge:3/cap", func() { s.StartFlow("dmerge:3", 1000, []*Port{p}, math.NaN(), nil) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "NaN capacity for port "+c.port) {
					t.Errorf("%s(NaN): panic %q, want one naming port %s", c.name, msg, c.port)
				}
			}()
			c.call()
		}()
	}
	if p.Capacity() != 100 || f.f.capPort.Capacity() != 10 || f.Rate() != 10 || s.ActiveFlows() != 1 {
		t.Fatalf("capacity %v, cap %v, rate %v, %d flows after the panics, want 100, 10, 10, 1",
			p.Capacity(), f.f.capPort.Capacity(), f.Rate(), s.ActiveFlows())
	}
}

func TestStartFlowPanicsOnNilPort(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil port")
		}
	}()
	e := sim.NewEngine(1)
	s := NewSystem(e)
	s.StartFlow("f", 10, []*Port{nil}, 0, nil)
}

func TestCancelFinishedFlowIsNoop(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("p", 100)
	f := s.StartFlow("f", 10, []*Port{p}, 0, nil)
	e.RunAll()
	if !f.Ended() {
		t.Fatal("finished flow has not ended")
	}
	f.Cancel() // already done; must not corrupt state
	if s.ActiveFlows() != 0 || e.Pending() {
		t.Fatalf("cancel after completion left %d flows, pending events %v", s.ActiveFlows(), e.Pending())
	}
}

func TestSetPriorityCapRemove(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("p", 1000)
	var done sim.Time
	f := s.StartFlow("f", 2000, []*Port{p}, 100, func() { done = e.Now() })
	e.Run(time.Second)  // 100 bytes at the cap
	f.SetPriorityCap(0) // remove cap -> full port speed
	e.RunAll()
	// 1s capped (100 B) + 1900/1000 = 1.9s -> ~2.9s total.
	if done < 2800*time.Millisecond || done > 3*time.Second {
		t.Fatalf("completion at %v, want ~2.9s after cap removal", done)
	}
	// Setting a cap on a finished flow is a no-op.
	f.SetPriorityCap(5)
}

func TestRemainingOnFreshFlow(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("p", 100)
	f := s.StartFlow("f", 500, []*Port{p}, 0, nil)
	if f.Remaining() != 500 {
		t.Fatalf("fresh flow remaining = %v, want 500", f.Remaining())
	}
	e.Run(2 * time.Second)
	rem := f.Remaining()
	if rem < 290 || rem > 310 {
		t.Fatalf("after 2s remaining = %v, want ~300", rem)
	}
	e.RunAll()
}

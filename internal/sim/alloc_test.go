package sim

import (
	"testing"
	"time"
)

// TestRescheduleAllocFree is the CI allocation gate for timer churn: once
// a timer object exists, re-arming and stopping it must not allocate.
// The engine's liveness pings, fetch watchdogs and
// fair-share completion events all ride this path thousands of times per
// run.
func TestRescheduleAllocFree(t *testing.T) {
	wheel(t, func(t *testing.T) {
		e := NewEngine(1)
		fn := func() {}
		tm := e.Schedule(time.Second, fn)
		allocs := testing.AllocsPerRun(200, func() {
			tm.Reschedule(time.Second, fn)
			tm.Stop()
			tm.Reschedule(2*time.Second, fn)
		})
		if allocs != 0 {
			t.Fatalf("Reschedule/Stop allocs/op = %v, want 0", allocs)
		}
	})
}

// TestScheduleSingleAlloc pins Schedule to exactly one allocation (the
// Timer itself) in the steady state, after the queue's internal storage
// has grown — the wheel's ready/overflow heaps and bucket lists must not
// allocate per event.
func TestScheduleSingleAlloc(t *testing.T) {
	wheel(t, func(t *testing.T) {
		e := NewEngine(1)
		fn := func() {}
		timers := make([]*Timer, 0, 256)
		for i := 0; i < 256; i++ {
			timers = append(timers, e.Schedule(time.Duration(i)*time.Second, fn))
		}
		for _, tm := range timers {
			tm.Stop()
		}
		allocs := testing.AllocsPerRun(200, func() {
			e.Schedule(time.Second, fn).Stop()
		})
		if allocs > 1 {
			t.Fatalf("Schedule allocs/op = %v, want <= 1", allocs)
		}
	})
}

// TestCascadeAllocFree pins the wheel's advance path: cascading a timer
// down through the levels relinks the same Timer object between
// intrusive bucket lists, so draining far-future events must not
// allocate beyond the one-off growth of the ready heap.
func TestCascadeAllocFree(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	// Warm the ready/overflow heap storage.
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Hour, fn)
	}
	e.RunAll()
	allocs := testing.AllocsPerRun(50, func() {
		tm := e.Schedule(13*time.Hour, fn) // lands in a coarse level, cascades on drain
		tm2 := e.Schedule(10*24*time.Hour, fn)
		_ = tm
		_ = tm2
		e.RunAll()
	})
	// Two Timer allocations per run; the cascade itself is free.
	if allocs > 2 {
		t.Fatalf("cascade allocs/op = %v, want <= 2 (the timers themselves)", allocs)
	}
}

// TestPostAllocFree pins Post's recycling: once a posted timer has fired,
// Step parks it and the next Post reuses it, so a steady stream of
// fire-and-forget events (serve loops, heartbeats, watchdog probes)
// allocates nothing.
func TestPostAllocFree(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	e.Post(time.Second, fn)
	e.RunAll()
	allocs := testing.AllocsPerRun(200, func() {
		e.Post(time.Second, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("Post+Step allocs/op = %v, want 0", allocs)
	}
}

// TestRebindAllocFree: replacing a pending timer's callback allocates
// nothing, so a reducer can detach every landed fetch's watchdog tick.
func TestRebindAllocFree(t *testing.T) {
	e := NewEngine(1)
	a, b := func() {}, func() {}
	tm := e.Schedule(time.Second, a)
	allocs := testing.AllocsPerRun(200, func() {
		tm.Rebind(b)
		tm.Rebind(a)
	})
	if allocs != 0 {
		t.Fatalf("Rebind allocs/op = %v, want 0", allocs)
	}
}

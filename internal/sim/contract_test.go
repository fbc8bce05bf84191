package sim

import (
	"slices"
	"testing"
	"time"
)

// TestRescheduleContract pins the Timer.Reschedule contract: re-arming
// is behaviourally identical to Stop() followed by Schedule, from every
// starting state a timer can be in.
//
//   - pending: the old event is displaced (counted in StoppedEvents,
//     exactly as a true-returning Stop) and the new one fires.
//   - fired: equivalent to a fresh Schedule; no stop is recorded.
//   - stopped: equivalent to a fresh Schedule; only the original Stop
//     is recorded.
//
// After every Reschedule the timer reports Active() until it fires or
// is stopped again, and sequence numbering matches the Stop+Schedule
// spelling so swapping the two forms cannot reorder same-instant
// events.
func TestRescheduleContract(t *testing.T) {
	wheel(t, func(t *testing.T) {
		t.Run("pending", func(t *testing.T) {
			e := NewEngine(1)
			var got []string
			tm := e.Schedule(time.Second, func() { got = append(got, "old") })
			tm.Reschedule(2*time.Second, func() { got = append(got, "new") })
			if !tm.Active() {
				t.Fatal("rescheduled pending timer must be Active")
			}
			if e.StoppedEvents() != 1 {
				t.Fatalf("StoppedEvents = %d, want 1 (the displaced pending event)", e.StoppedEvents())
			}
			if e.QueueLen() != 1 {
				t.Fatalf("QueueLen = %d, want 1", e.QueueLen())
			}
			e.RunAll()
			if len(got) != 1 || got[0] != "new" {
				t.Fatalf("fired %v, want [new]", got)
			}
			if e.Now() != 2*time.Second {
				t.Fatalf("Now = %v, want 2s", e.Now())
			}
			if tm.Active() {
				t.Fatal("fired timer must not be Active")
			}
		})

		t.Run("fired", func(t *testing.T) {
			e := NewEngine(1)
			fired := 0
			tm := e.Schedule(time.Second, func() { fired++ })
			e.RunAll()
			if fired != 1 || tm.Active() {
				t.Fatalf("precondition: fired=%d active=%v", fired, tm.Active())
			}
			tm.Reschedule(time.Second, func() { fired++ })
			if !tm.Active() {
				t.Fatal("re-armed fired timer must be Active")
			}
			if e.StoppedEvents() != 0 {
				t.Fatalf("StoppedEvents = %d, want 0 (nothing was displaced)", e.StoppedEvents())
			}
			e.RunAll()
			if fired != 2 {
				t.Fatalf("fired %d times, want 2", fired)
			}
			if e.Now() != 2*time.Second {
				t.Fatalf("Now = %v, want 2s", e.Now())
			}
		})

		t.Run("stopped", func(t *testing.T) {
			e := NewEngine(1)
			fired := 0
			tm := e.Schedule(time.Second, func() { t.Error("stopped event fired") })
			if !tm.Stop() || tm.Active() {
				t.Fatal("precondition: Stop must cancel the pending event")
			}
			tm.Reschedule(3*time.Second, func() { fired++ })
			if !tm.Active() {
				t.Fatal("re-armed stopped timer must be Active")
			}
			if e.StoppedEvents() != 1 {
				t.Fatalf("StoppedEvents = %d, want 1 (only the explicit Stop)", e.StoppedEvents())
			}
			e.RunAll()
			if fired != 1 {
				t.Fatalf("fired %d times, want 1", fired)
			}
			if tm.Active() {
				t.Fatal("fired timer must not be Active")
			}
		})

		// Reschedule must slot the event exactly where Stop+Schedule
		// would: among same-instant peers it fires in re-arm order, not
		// original-arm order.
		t.Run("sequencing", func(t *testing.T) {
			e := NewEngine(1)
			var got []int
			first := e.Schedule(time.Second, func() { got = append(got, 0) })
			e.Schedule(time.Second, func() { got = append(got, 1) })
			first.Reschedule(time.Second, func() { got = append(got, 2) })
			e.RunAll()
			if len(got) != 2 || got[0] != 1 || got[1] != 2 {
				t.Fatalf("fired %v, want [1 2]: re-arming moves the event behind its former peers", got)
			}
		})
	})
}

// TestAfterEventContract pins the after-event hooks: they run once, in
// registration order, after the handler that registered them returns
// and before the next event is popped — so a hook that re-times a
// placeholder timer is done before Run(until) peeks at the queue.
func TestAfterEventContract(t *testing.T) {
	t.Run("order", func(t *testing.T) {
		e := NewEngine(1)
		var got []string
		e.Schedule(time.Second, func() {
			got = append(got, "a")
			e.AfterEvent(func() { got = append(got, "a.hook1") })
			e.AfterEvent(func() { got = append(got, "a.hook2") })
			got = append(got, "a.end")
		})
		e.Schedule(time.Second, func() { got = append(got, "b") })
		e.Schedule(2*time.Second, func() {
			got = append(got, "c")
			e.AfterEvent(func() { got = append(got, "c.hook") })
		})
		e.RunAll()
		want := []string{"a", "a.end", "a.hook1", "a.hook2", "b", "c", "c.hook"}
		if !slices.Equal(got, want) {
			t.Fatalf("ran %v, want %v", got, want)
		}
	})

	t.Run("no stale timer", func(t *testing.T) {
		e := NewEngine(1)
		fired := Time(-1)
		var tm *Timer
		e.Schedule(time.Second, func() {
			// A placeholder at the current instant, moved to its real
			// deadline by a hook.
			tm = e.Schedule(0, func() { fired = e.Now() })
			e.AfterEvent(func() { tm.Retime(10 * time.Second) })
		})
		e.Run(time.Second)
		if fired >= 0 || !tm.Active() || e.Now() != time.Second {
			t.Fatalf("Run(1s): placeholder fired at %v (active %v, now %v); the hook must retime it first",
				fired, tm.Active(), e.Now())
		}
		e.Run(5 * time.Second)
		if fired >= 0 || e.Now() != 5*time.Second {
			t.Fatalf("Run(5s): fired at %v, now %v", fired, e.Now())
		}
		e.RunAll()
		if fired != 11*time.Second {
			t.Fatalf("fired at %v, want 11s", fired)
		}
	})

	t.Run("in event", func(t *testing.T) {
		e := NewEngine(1)
		if e.InEvent() {
			t.Fatal("InEvent before any event")
		}
		var handler, hook []bool
		e.Schedule(0, func() {
			handler = append(handler, e.InEvent())
			e.AfterEvent(func() { hook = append(hook, e.InEvent()) })
		})
		if !e.Step() {
			t.Fatal("no event fired")
		}
		if !slices.Equal(handler, []bool{true}) || !slices.Equal(hook, []bool{false}) {
			t.Fatalf("InEvent in handler %v, in hook %v; want [true] and [false]", handler, hook)
		}
		if e.InEvent() {
			t.Fatal("InEvent after Step returned")
		}
	})

	t.Run("outside an event panics", func(t *testing.T) {
		e := NewEngine(1)
		mustPanic(t, "AfterEvent outside a handler", func() { e.AfterEvent(func() {}) })
		e.Schedule(0, func() {
			e.AfterEvent(func() {
				mustPanic(t, "AfterEvent inside a hook", func() { e.AfterEvent(func() {}) })
			})
		})
		e.RunAll()
	})
}

// TestRetimeContract pins Timer.Retime: the timer moves to the new
// deadline but keeps its sequence number, so among same-instant peers it
// fires where its last arming put it; nothing is counted as stopped or
// scheduled, and the queue high-water mark does not move.
func TestRetimeContract(t *testing.T) {
	e := NewEngine(1)
	var got []string
	first := e.Schedule(time.Second, func() { got = append(got, "first") })
	e.Schedule(2*time.Second, func() { got = append(got, "peer") })
	last := e.Schedule(3*time.Second, func() { got = append(got, "last") })
	stopped, maxQ, n := e.StoppedEvents(), e.MaxQueueLen(), e.QueueLen()

	first.Retime(2 * time.Second) // older than peer: fires before it
	last.Retime(2 * time.Second)  // younger than peer: fires after it
	if e.StoppedEvents() != stopped || e.MaxQueueLen() != maxQ || e.QueueLen() != n {
		t.Fatalf("Retime moved the accounting: stopped %d→%d, max queue %d→%d, queue %d→%d",
			stopped, e.StoppedEvents(), maxQ, e.MaxQueueLen(), n, e.QueueLen())
	}
	e.RunAll()
	if want := []string{"first", "peer", "last"}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if e.Now() != 2*time.Second || e.Processed() != 3 {
		t.Fatalf("now %v, processed %d; want 2s and 3", e.Now(), e.Processed())
	}

	mustPanic(t, "Retime of a fired timer", func() { first.Retime(time.Second) })
	tm := e.Schedule(time.Second, func() {})
	tm.Stop()
	mustPanic(t, "Retime of a stopped timer", func() { tm.Retime(time.Second) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

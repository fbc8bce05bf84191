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

// TestAfterEventContract pins the end-of-instant hooks (AfterInstant):
// they run once, in registration order, after every event due at the
// instant they were registered in has fired, and before the clock
// moves, before a guarded timer pops and before the queue is found
// empty — so a hook that re-times a placeholder is done before
// Run(until) peeks at the queue, and a guarded placeholder never fires
// unmoved.
func TestAfterEventContract(t *testing.T) {
	t.Run("order", func(t *testing.T) {
		e := NewEngine(1)
		var got []string
		e.Schedule(time.Second, func() {
			got = append(got, "a")
			e.AfterInstant(func() { got = append(got, "a.hook1") })
			e.AfterInstant(func() { got = append(got, "a.hook2") })
			got = append(got, "a.end")
			e.Post(0, func() { got = append(got, "a.post") })
		})
		e.Schedule(time.Second, func() {
			got = append(got, "b")
			e.AfterInstant(func() { got = append(got, "b.hook") })
		})
		e.Schedule(2*time.Second, func() {
			got = append(got, "c")
			e.AfterInstant(func() { got = append(got, "c.hook") })
		})
		e.RunAll()
		want := []string{"a", "a.end", "b", "a.post", "a.hook1", "a.hook2", "b.hook", "c", "c.hook"}
		if !slices.Equal(got, want) {
			t.Fatalf("ran %v, want %v", got, want)
		}
	})

	t.Run("guarded timer", func(t *testing.T) {
		e := NewEngine(1)
		var got []string
		e.Schedule(time.Second, func() {
			got = append(got, "a")
			e.AfterInstant(func() { got = append(got, "hook") })
		})
		e.Schedule(time.Second, func() { got = append(got, "guarded") }).Guard()
		e.Schedule(time.Second, func() {
			got = append(got, "b")
			e.AfterInstant(func() { got = append(got, "b.hook") })
		})
		// A guarded timer with no hook pending pops as any other.
		e.Schedule(time.Second, func() { got = append(got, "guarded2") }).Guard()
		e.RunAll()
		want := []string{"a", "hook", "guarded", "b", "b.hook", "guarded2"}
		if !slices.Equal(got, want) {
			t.Fatalf("ran %v, want %v", got, want)
		}
		if e.Processed() != 4 {
			t.Fatalf("processed %d, want 4: hooks are not events", e.Processed())
		}
	})

	t.Run("no stale timer", func(t *testing.T) {
		e := NewEngine(1)
		fired := Time(-1)
		var tm *Timer
		e.Schedule(time.Second, func() {
			// A placeholder at the current instant, moved to its real
			// deadline by a hook before anything can pop it.
			tm = e.Schedule(0, func() { fired = e.Now() })
			tm.Guard()
			e.AfterInstant(func() { tm.Retime(10 * time.Second) })
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

	t.Run("drained queue", func(t *testing.T) {
		e := NewEngine(1)
		ran := Time(-1)
		e.Schedule(time.Second, func() {
			e.AfterInstant(func() { ran = e.Now() })
		})
		if !e.Step() {
			t.Fatal("no event fired")
		}
		if ran >= 0 {
			t.Fatal("hook ran with the instant still open")
		}
		if e.Step() {
			t.Fatal("Step fired an event from an empty queue")
		}
		if ran != time.Second {
			t.Fatalf("hook ran at %v, want 1s, when Step found the queue empty", ran)
		}

		// Run returns on a drained queue only after the hooks, and a
		// hook's own events keep it going.
		var got []string
		e.Schedule(time.Second, func() {
			got = append(got, "a")
			e.AfterInstant(func() {
				got = append(got, "hook")
				e.Schedule(time.Second, func() { got = append(got, "b") })
			})
		})
		e.RunAll()
		if want := []string{"a", "hook", "b"}; !slices.Equal(got, want) || e.Now() != 3*time.Second {
			t.Fatalf("ran %v, now %v; want %v, 3s", got, e.Now(), want)
		}
	})

	t.Run("until bound", func(t *testing.T) {
		e := NewEngine(1)
		ran := Time(-1)
		e.Schedule(time.Second, func() {
			e.AfterInstant(func() { ran = e.Now() })
		})
		e.Schedule(5*time.Second, func() {})
		e.Run(2 * time.Second)
		if ran != time.Second || e.Now() != 2*time.Second {
			t.Fatalf("hook ran at %v, now %v; want 1s and 2s", ran, e.Now())
		}

		// An until bound behind the clock leaves it where it is, but the
		// hooks still run before Run returns.
		ran = -1
		e.Schedule(time.Second, func() {
			e.AfterInstant(func() { ran = e.Now() })
			e.Post(0, func() {})
		})
		e.Step()
		e.Run(time.Second)
		if ran != 3*time.Second || e.Now() != 3*time.Second || e.QueueLen() != 2 {
			t.Fatalf("hook ran at %v, now %v, queue %d; want 3s, 3s, 2", ran, e.Now(), e.QueueLen())
		}
	})

	t.Run("stop and resume", func(t *testing.T) {
		e := NewEngine(1)
		var got []string
		e.Schedule(time.Second, func() {
			got = append(got, "a")
			e.AfterInstant(func() { got = append(got, "hook") })
			e.Stop()
		})
		e.Schedule(time.Second, func() { got = append(got, "b") })
		e.Schedule(2*time.Second, func() { got = append(got, "c") })
		e.RunAll()
		if want := []string{"a"}; !slices.Equal(got, want) {
			t.Fatalf("after Stop ran %v, want %v: the instant is still open", got, want)
		}
		e.RunAll()
		if want := []string{"a", "b", "hook", "c"}; !slices.Equal(got, want) {
			t.Fatalf("resumed Run ran %v, want %v", got, want)
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
			e.AfterInstant(func() { hook = append(hook, e.InEvent()) })
		})
		e.RunAll()
		if !slices.Equal(handler, []bool{true}) || !slices.Equal(hook, []bool{false}) {
			t.Fatalf("InEvent in handler %v, in hook %v; want [true] and [false]", handler, hook)
		}
		if e.InEvent() {
			t.Fatal("InEvent after Run returned")
		}
	})

	t.Run("outside an event panics", func(t *testing.T) {
		e := NewEngine(1)
		mustPanic(t, "AfterInstant outside a handler", func() { e.AfterInstant(func() {}) })
		e.Schedule(0, func() {
			e.AfterInstant(func() {
				mustPanic(t, "AfterInstant inside a hook", func() { e.AfterInstant(func() {}) })
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

// TestRebindContract pins Timer.Rebind: the timer keeps its instant and
// sequence number, so it fires where its arming put it among same-instant
// peers, now running the new callback; nothing is counted as stopped or
// scheduled. On a fired or stopped timer Rebind does nothing, and a
// later Reschedule arms the timer as usual.
func TestRebindContract(t *testing.T) {
	e := NewEngine(1)
	var got []string
	first := e.Schedule(time.Second, func() { got = append(got, "first") })
	e.Schedule(time.Second, func() { got = append(got, "peer") })
	stopped, maxQ, n := e.StoppedEvents(), e.MaxQueueLen(), e.QueueLen()

	first.Rebind(func() { got = append(got, "rebound") })
	if e.StoppedEvents() != stopped || e.MaxQueueLen() != maxQ || e.QueueLen() != n {
		t.Fatalf("Rebind moved the accounting: stopped %d→%d, max queue %d→%d, queue %d→%d",
			stopped, e.StoppedEvents(), maxQ, e.MaxQueueLen(), n, e.QueueLen())
	}
	e.RunAll()
	if want := []string{"rebound", "peer"}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if e.Now() != time.Second || e.Processed() != 2 {
		t.Fatalf("now %v, processed %d; want 1s and 2", e.Now(), e.Processed())
	}

	first.Rebind(func() { t.Fatal("a fired timer ran its rebound callback") })
	stoppedTm := e.Schedule(time.Second, func() {})
	stoppedTm.Stop()
	stoppedTm.Rebind(func() { t.Fatal("a stopped timer ran its rebound callback") })
	if first.Active() || stoppedTm.Active() || e.Pending() {
		t.Fatal("Rebind armed an idle timer")
	}
	first.Reschedule(time.Second, func() { got = append(got, "rearmed") })
	e.RunAll()
	if got[len(got)-1] != "rearmed" {
		t.Fatalf("fired %v, want a re-armed timer to run its own callback", got)
	}
	mustPanic(t, "Rebind with a nil callback", func() { first.Rebind(nil) })
}

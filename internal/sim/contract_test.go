package sim

import (
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

package sim

import (
	"sort"
	"testing"
	"time"
)

// wheel runs f as the "wheel" subtest, so the IDs of the ordering,
// contract and allocation tests name the event queue they pin.
func wheel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Run("wheel", f)
}

// TestWheelLevelSpread schedules one timer per wheel level plus an
// overflow-range one and checks exact firing order: cascading from every
// level down to the ready heap must preserve (at, seq).
func TestWheelLevelSpread(t *testing.T) {
	wheel(t, func(t *testing.T) {
		delays := []Time{
			0,                    // ready immediately
			5 * time.Millisecond, // level 0
			2 * time.Second,      // level 1
			3 * time.Minute,      // level 2
			2 * time.Hour,        // level 3
			48 * time.Hour,       // level 4
			30 * 24 * time.Hour,  // overflow (beyond the ~6.5-day horizon)
		}
		e := NewEngine(1)
		var got []int
		// Schedule in reverse so insertion order disagrees with firing order.
		for i := len(delays) - 1; i >= 0; i-- {
			i := i
			e.Schedule(delays[i], func() { got = append(got, i) })
		}
		e.RunAll()
		if len(got) != len(delays) {
			t.Fatalf("fired %d of %d events", len(got), len(delays))
		}
		for i := range delays {
			if got[i] != i {
				t.Fatalf("firing order %v, want ascending by delay", got)
			}
		}
		if e.Now() != delays[len(delays)-1] {
			t.Fatalf("Now = %v, want %v", e.Now(), delays[len(delays)-1])
		}
	})
}

// TestWheelSubTickOrdering pins the determinism contract at finer-than-
// tick granularity: distinct timestamps quantised into the same wheel
// bucket must still fire in exact (at, seq) order.
func TestWheelSubTickOrdering(t *testing.T) {
	wheel(t, func(t *testing.T) {
		e := NewEngine(1)
		base := 10 * time.Second
		var got []int
		// 100ns apart: hundreds of events inside one ~524µs tick, scheduled
		// in an order that disagrees with their timestamps.
		order := []int{7, 2, 9, 0, 5, 1, 8, 3, 6, 4}
		for _, i := range order {
			i := i
			e.Schedule(base+Time(i*100), func() { got = append(got, i) })
		}
		e.RunAll()
		if !sort.IntsAreSorted(got) {
			t.Fatalf("sub-tick events fired out of timestamp order: %v", got)
		}
	})
}

// TestWheelSameTimestampFIFO: ties on `at` break by scheduling order even
// when the timestamps land deep in a coarse level.
func TestWheelSameTimestampFIFO(t *testing.T) {
	wheel(t, func(t *testing.T) {
		e := NewEngine(1)
		var got []int
		for i := 0; i < 32; i++ {
			i := i
			e.Schedule(90*time.Minute, func() { got = append(got, i) })
		}
		e.RunAll()
		for i := range got {
			if got[i] != i {
				t.Fatalf("same-time events not FIFO: %v", got)
			}
		}
	})
}

// TestWheelStopUnlinks stops bucketed, imminent and overflow timers and
// checks queue accounting: stopped events leave no residue in any of the
// wheel's structures.
func TestWheelStopUnlinks(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	keep := e.Schedule(time.Second, func() { fired++ })
	victims := []*Timer{
		e.Schedule(0, func() { t.Error("stopped ready timer fired") }),
		e.Schedule(3*time.Millisecond, func() { t.Error("stopped level-0 timer fired") }),
		e.Schedule(2*time.Second, func() { t.Error("stopped level-1 timer fired") }),
		e.Schedule(2*time.Hour, func() { t.Error("stopped level-3 timer fired") }),
		e.Schedule(30*24*time.Hour, func() { t.Error("stopped overflow timer fired") }),
	}
	for _, v := range victims {
		if !v.Stop() {
			t.Fatal("Stop on a pending timer must report true")
		}
		if v.Active() {
			t.Fatal("stopped timer still Active")
		}
	}
	if got := e.QueueLen(); got != 1 {
		t.Fatalf("QueueLen after stops = %d, want 1", got)
	}
	if got := e.StoppedEvents(); got != uint64(len(victims)) {
		t.Fatalf("StoppedEvents = %d, want %d", got, len(victims))
	}
	e.RunAll()
	if fired != 1 || e.QueueLen() != 0 {
		t.Fatalf("fired=%d queue len=%d, want 1/0", fired, e.QueueLen())
	}
	_ = keep
}

// TestWheelRunUntilThenEarlier covers the advance-ahead path: peeking
// under a Run(until) bound cascades the wheel's internal clock up to the
// next pending event, which may lie far beyond until. Events scheduled
// afterwards — between until and that event — must still fire first.
func TestWheelRunUntilThenEarlier(t *testing.T) {
	wheel(t, func(t *testing.T) {
		e := NewEngine(1)
		var got []int
		e.Schedule(time.Hour, func() { got = append(got, 2) })
		e.Run(time.Minute) // clock parks at 1min; wheel has advanced toward the 1h event
		if e.Now() != time.Minute {
			t.Fatalf("Now = %v, want 1m", e.Now())
		}
		e.Schedule(time.Second, func() { got = append(got, 1) }) // earlier than the pending 1h event
		e.Schedule(0, func() { got = append(got, 0) })
		e.RunAll()
		want := []int{0, 1, 2}
		if len(got) != len(want) {
			t.Fatalf("fired %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("fired %v, want %v", got, want)
			}
		}
	})
}

// TestWheelOverflowInterleaved checks overflow re-homing against nearer
// wheel events arriving later: an event beyond the horizon scheduled
// first must not fire before a nearer event scheduled afterwards, and
// both must fire before a later overflow event.
func TestWheelOverflowInterleaved(t *testing.T) {
	wheel(t, func(t *testing.T) {
		e := NewEngine(1)
		var got []string
		e.Schedule(10*24*time.Hour, func() { got = append(got, "far") })
		e.Schedule(20*24*time.Hour, func() { got = append(got, "farther") })
		e.Schedule(time.Second, func() {
			got = append(got, "near")
			// From within a handler, schedule between the two overflow events.
			e.Schedule(15*24*time.Hour-time.Second, func() { got = append(got, "mid") })
		})
		e.RunAll()
		want := []string{"near", "far", "mid", "farther"}
		if len(got) != len(want) {
			t.Fatalf("fired %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("fired %v, want %v", got, want)
			}
		}
	})
}

// TestWheelMaxQueueParity: the queue high-water mark is part of
// Result.Events and rides into benchmark metrics, so the wheel must
// report the reference loop's values for the same schedule/stop profile.
func TestWheelMaxQueueParity(t *testing.T) {
	wMax, wLen := maxQueueProfile[*Timer](NewEngine(1))
	rMax, rLen := maxQueueProfile[*refTimer](&refLoop{})
	if wMax != rMax || wLen != rLen {
		t.Fatalf("wheel (max=%d len=%d) != ref (max=%d len=%d)", wMax, wLen, rMax, rLen)
	}
}

func maxQueueProfile[T diffTimer](e diffEngine[T]) (int, int) {
	var live []T
	for i := 0; i < 500; i++ {
		live = append(live, e.Schedule(Time(i)*time.Millisecond+time.Second, func() {}))
		if i%3 == 0 {
			live[i/2].Stop()
		}
	}
	e.Run(time.Second + 250*time.Millisecond)
	return e.MaxQueueLen(), e.QueueLen()
}

package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.RunAll()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(-time.Second, func() { fired = true })
	e.RunAll()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if e.Now() != 0 {
		t.Fatalf("Now = %v, want 0", e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.Schedule(time.Second, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true the first time")
	}
	if tm.Stop() {
		t.Fatal("Stop should report false the second time")
	}
	e.RunAll()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestStopFromHandler(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Schedule(time.Second, func() { count++; e.Stop() })
	e.Schedule(2*time.Second, func() { count++ })
	e.Run(-1)
	if count != 1 {
		t.Fatalf("count = %d, want 1 (Stop should halt the loop)", count)
	}
	// A later Run resumes the remaining events.
	e.RunAll()
	if count != 2 {
		t.Fatalf("count = %d, want 2 after resuming", count)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(time.Second, func() { got = append(got, 1) })
	e.Schedule(5*time.Second, func() { got = append(got, 5) })
	e.Run(2 * time.Second)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got %v, want [1]", got)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want clock advanced to the until bound", e.Now())
	}
	e.RunAll()
	if len(got) != 2 {
		t.Fatalf("remaining event did not fire: %v", got)
	}

	// An until bound behind the clock must not rewind it: the event
	// scheduled afterwards fires at the current instant, not in the past.
	e.Schedule(5*time.Second, func() { got = append(got, 10) })
	e.Run(10 * time.Second)
	e.Schedule(10*time.Second, func() { got = append(got, 20) })
	e.Run(5 * time.Second)
	if e.Now() != 10*time.Second {
		t.Fatalf("Run(5s) at 10s moved the clock to %v, want it left at 10s", e.Now())
	}
	var firedAt Time
	e.Schedule(0, func() { got, firedAt = append(got, 0), e.Now() })
	e.RunAll()
	if want := []int{1, 5, 10, 0, 20}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if firedAt != 10*time.Second {
		t.Fatalf("zero-delay event fired at %v, want 10s", firedAt)
	}
	if e.Now() != 20*time.Second {
		t.Fatalf("Now = %v, want 20s", e.Now())
	}
}

func TestRunUntilInclusive(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(2*time.Second, func() { fired = true })
	e.Run(2 * time.Second)
	if !fired {
		t.Fatal("event at exactly the until bound should fire")
	}
}

func TestScheduleFromHandler(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	var tick func()
	n := 0
	tick = func() {
		times = append(times, e.Now())
		n++
		if n < 5 {
			e.Schedule(time.Second, tick)
		}
	}
	e.Schedule(0, tick)
	e.RunAll()
	if len(times) != 5 {
		t.Fatalf("got %d ticks, want 5", len(times))
	}
	for i, tm := range times {
		if tm != time.Duration(i)*time.Second {
			t.Fatalf("tick %d at %v, want %v", i, tm, time.Duration(i)*time.Second)
		}
	}
}

func TestPending(t *testing.T) {
	e := NewEngine(1)
	if e.Pending() {
		t.Fatal("empty engine should not be pending")
	}
	tm := e.Schedule(time.Second, func() {})
	if !e.Pending() {
		t.Fatal("engine with one event should be pending")
	}
	tm.Stop()
	if e.Pending() {
		t.Fatal("engine with only canceled events should not be pending")
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEngine(seed)
		var fired []Time
		for i := 0; i < 100; i++ {
			d := time.Duration(e.Rand().Intn(1000)) * time.Millisecond
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.RunAll()
		return fired
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMaxEventsGuard(t *testing.T) {
	e := NewEngine(1)
	e.SetMaxEvents(10)
	var loop func()
	loop = func() { e.Schedule(time.Millisecond, loop) }
	e.Schedule(0, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from max-events guard")
		}
	}()
	e.RunAll()
}

// Property: firing order is always the sorted order of scheduled times
// (stable for ties), regardless of insertion order.
func TestQuickOrdering(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		if len(delaysMs) == 0 {
			return true
		}
		e := NewEngine(7)
		type rec struct {
			at  Time
			idx int
		}
		var fired []rec
		for i, d := range delaysMs {
			i, at := i, time.Duration(d)*time.Millisecond
			e.Schedule(at, func() { fired = append(fired, rec{e.Now(), i}) })
		}
		e.RunAll()
		if len(fired) != len(delaysMs) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].idx < fired[j].idx
		}) {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

package sim

import (
	"testing"
	"time"
)

// BenchmarkScheduleRun measures raw event throughput: schedule and drain
// 10k events.
func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		for j := 0; j < 10_000; j++ {
			e.Schedule(time.Duration(j%997)*time.Millisecond, func() {})
		}
		e.RunAll()
	}
}

// BenchmarkTimerChurn measures the cancel-heavy pattern the runtime uses
// (watchdogs armed and disarmed constantly): O(1) schedule + O(1) stop.
func BenchmarkTimerChurn(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < b.N; i++ {
		t := e.Schedule(time.Hour, func() {})
		t.Stop()
	}
	if e.QueueLen() != 0 {
		b.Fatalf("%d canceled events retained in the queue", e.QueueLen())
	}
}

// BenchmarkTimerStopChurn is the watchdog pattern that used to bloat the
// event queue: keep a window of armed far-future timers, canceling the
// oldest as each new one is armed. Stop removes the event eagerly, so
// the queue's high-water mark stays at the window size instead of
// growing with the total number of schedules.
func BenchmarkTimerStopChurn(b *testing.B) {
	const window = 1024
	e := NewEngine(1)
	ring := make([]*Timer, window)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % window
		if ring[slot] != nil {
			ring[slot].Stop()
		}
		ring[slot] = e.Schedule(Time(1<<40), fn)
	}
	b.StopTimer()
	b.ReportMetric(float64(e.MaxQueueLen()), "max_event_queue")
	if b.N > 2*window && e.MaxQueueLen() > window+1 {
		b.Fatalf("queue high-water mark %d exceeds the live window %d: canceled timers are being retained",
			e.MaxQueueLen(), window)
	}
}

// BenchmarkSelfScheduling measures a ticker-style cascade.
func BenchmarkSelfScheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 10_000 {
				e.Schedule(time.Millisecond, tick)
			}
		}
		e.Schedule(0, tick)
		e.RunAll()
	}
}

// BenchmarkQueueCascade drains a spread of delays that spans every wheel
// level plus overflow, so the advance/cascade machinery — not Schedule —
// dominates.
func BenchmarkQueueCascade(b *testing.B) {
	delays := make([]Time, 0, 512)
	for i := 0; i < 512; i++ {
		// Geometric-ish spread from sub-tick to beyond the horizon.
		delays = append(delays, Time(1)<<(10+uint(i)%44)+Time(i))
	}
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		for _, d := range delays {
			e.Schedule(d, fn)
		}
		e.RunAll()
	}
}

// BenchmarkRunInterrupt pins the cost of the event-loop interrupt hook —
// the countdown in Run that replaced a per-event modulo. The no-interrupt
// variant is the baseline: installing a poll every 256 events should add
// roughly a decrement and a branch per event, nothing more.
func BenchmarkRunInterrupt(b *testing.B) {
	run := func(b *testing.B, every uint64) {
		for i := 0; i < b.N; i++ {
			e := NewEngine(1)
			if every > 0 {
				e.SetInterrupt(every, func() bool { return false })
			}
			n := 0
			var tick func()
			tick = func() {
				n++
				if n < 10_000 {
					e.Schedule(time.Millisecond, tick)
				}
			}
			e.Schedule(0, tick)
			e.RunAll()
		}
	}
	b.Run("none", func(b *testing.B) { run(b, 0) })
	b.Run("every256", func(b *testing.B) { run(b, 256) })
	b.Run("every1", func(b *testing.B) { run(b, 1) })
}

package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// Differential tester: drive the engine's timing wheel and refLoop, a
// reference event loop kept deliberately naive, through the same
// randomized script of mixed Schedule / Post / Stop / Reschedule /
// Retime / Run operations and assert bit-identical behaviour — firing sequence,
// virtual clock, Stop return values, queue accounting. refLoop is the
// oracle: a sorted list of pending events, ordered by (at, seq) with its
// own comparison so a fault in the wheel's ordering key cannot hide in
// both.
//
// Scripts are generated up front from a seeded rand so both loops
// interpret exactly the same operations; anything a callback does is
// fixed at generation time. The delay grid is engineered to hit the
// wheel where it could break: negative delays, zero delays, sub-tick
// spreads, exact tick boundaries (multiples of 2^19ns), bucket-sharing
// bursts, level boundaries, and beyond-horizon overflow times.

const (
	dopSchedule = iota // schedule into a slot, or post (diffOp.post)
	dopStop            // stop the timer in a slot
	dopResched         // reschedule the timer in a slot (any state)
	dopRetime          // retime the timer in a slot, if it is pending
	dopRun             // Run(now + delta): boundary events at exactly until
	dopRunAll
)

const (
	dactNone     = iota
	dactSchedule // from inside the callback, schedule a child
	dactStop     // from inside the callback, stop another slot
	dactPost     // from inside the callback, post a child
)

type diffOp struct {
	kind int
	// post makes a dopSchedule a Post: no handle, so the slot keeps the
	// timer it held, and the wheel recycles the Timer once it fires.
	post    bool
	slot    int
	delay   Time
	id      int
	act     int
	actSlot int
	actDly  Time
	childID int
}

// diffDelays is the delay grid. tick = 2^19ns; values sit on and around
// tick and level boundaries on purpose.
var diffDelays = []Time{
	-time.Second, // negative: clamps to now → same-tick burst with peers
	0, 0, 0,      // zero-delay bursts (weighted)
	1, 100, 333, // sub-tick nanoseconds
	Time(1) << 19, Time(1)<<19 - 1, Time(1)<<19 + 1, // the tick boundary
	250 * time.Microsecond, time.Millisecond, 3 * time.Millisecond,
	33 * time.Millisecond, 34 * time.Millisecond, // level-0 span boundary
	time.Second, 2 * time.Second, 90 * time.Second,
	30 * time.Minute, 3 * time.Hour, // levels 2-3
	30 * time.Hour, Time(1) << 40, // level 4
	6 * 24 * time.Hour, 8 * 24 * time.Hour, // around the wheel horizon
	30 * 24 * time.Hour, // deep overflow
}

func genScript(rng *rand.Rand, ops, slots int) []diffOp {
	script := make([]diffOp, 0, ops)
	nextID := 0
	delay := func() Time { return diffDelays[rng.Intn(len(diffDelays))] }
	for i := 0; i < ops; i++ {
		op := diffOp{slot: rng.Intn(slots), delay: delay(), id: nextID}
		nextID++
		switch r := rng.Intn(100); {
		case r < 45:
			op.kind = dopSchedule
			op.post = rng.Intn(4) == 0
			// A third of scheduled events do something inside their callback.
			switch a := rng.Intn(12); {
			case a < 2:
				op.act, op.actSlot, op.actDly = dactSchedule, rng.Intn(slots), delay()
				op.childID = nextID
				nextID++
			case a < 3:
				op.act, op.actSlot = dactStop, rng.Intn(slots)
			case a < 4:
				op.act, op.actDly = dactPost, delay()
				op.childID = nextID
				nextID++
			}
		case r < 65:
			op.kind = dopStop
		case r < 75:
			op.kind = dopResched
		case r < 80:
			op.kind = dopRetime
		case r < 97:
			op.kind = dopRun
		default:
			op.kind = dopRunAll
		}
		script = append(script, op)
	}
	return script
}

type diffFiring struct {
	at Time
	id int
}

type diffOutcome struct {
	fired     []diffFiring
	stops     []bool
	now       Time
	processed uint64
	stopped   uint64
	maxQueue  int
	queueLen  int
}

// refTimer is a refLoop event and its handle.
type refTimer struct {
	loop    *refLoop
	at      Time
	seq     uint64
	fn      func()
	pending bool
}

// refLoop is the reference event loop: the Engine's scheduling contract
// and accounting (processed, stopped, queue high-water mark, length)
// over a slice of pending timers kept sorted by (at, seq).
type refLoop struct {
	now       Time
	seq       uint64
	pending   []*refTimer
	processed uint64
	stopped   uint64
	maxQueue  int
}

// refBefore reports whether a fires before b.
func refBefore(a, b *refTimer) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// search returns the position of t in the pending list, or where it
// belongs.
func (r *refLoop) search(t *refTimer) int {
	return sort.Search(len(r.pending), func(i int) bool { return !refBefore(r.pending[i], t) })
}

func (r *refLoop) arm(t *refTimer, delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	at := r.now + delay
	if at < r.now {
		at = r.now
	}
	r.seq++
	t.at, t.seq, t.fn, t.pending = at, r.seq, fn, true
	i := r.search(t)
	r.pending = append(r.pending, nil)
	copy(r.pending[i+1:], r.pending[i:])
	r.pending[i] = t
	r.maxQueue = max(r.maxQueue, len(r.pending))
}

func (r *refLoop) unlink(t *refTimer) {
	i := r.search(t)
	r.pending = append(r.pending[:i], r.pending[i+1:]...)
	t.pending = false
}

func (r *refLoop) Schedule(delay Time, fn func()) *refTimer {
	t := &refTimer{loop: r}
	r.arm(t, delay, fn)
	return t
}

// Post is Schedule with the handle dropped.
func (r *refLoop) Post(delay Time, fn func()) { r.Schedule(delay, fn) }

func (t *refTimer) Stop() bool {
	if t == nil || !t.pending {
		return false
	}
	t.loop.unlink(t)
	t.loop.stopped++
	return true
}

func (t *refTimer) Reschedule(delay Time, fn func()) {
	if t.pending {
		t.loop.unlink(t)
		t.loop.stopped++
	}
	t.loop.arm(t, delay, fn)
}

// Retime moves a pending timer to now+delay and re-inserts it under its
// old sequence number; nothing is counted.
func (t *refTimer) Retime(delay Time) {
	if !t.pending {
		panic("refLoop: Retime of a timer that is not pending")
	}
	r := t.loop
	r.unlink(t)
	if delay < 0 {
		delay = 0
	}
	t.at = r.now + delay
	if t.at < r.now {
		t.at = r.now
	}
	i := r.search(t)
	r.pending = append(r.pending, nil)
	copy(r.pending[i+1:], r.pending[i:])
	r.pending[i] = t
	t.pending = true
}

func (t *refTimer) Active() bool { return t.pending }

func (r *refLoop) Run(until Time) {
	for len(r.pending) > 0 {
		t := r.pending[0]
		if until >= 0 && t.at > until {
			r.now = max(r.now, until)
			return
		}
		r.unlink(t)
		r.now = t.at
		r.processed++
		t.fn()
	}
}

func (r *refLoop) RunAll()               { r.Run(-1) }
func (r *refLoop) Now() Time             { return r.now }
func (r *refLoop) Processed() uint64     { return r.processed }
func (r *refLoop) StoppedEvents() uint64 { return r.stopped }
func (r *refLoop) MaxQueueLen() int      { return r.maxQueue }
func (r *refLoop) QueueLen() int         { return len(r.pending) }

// diffTimer and diffEngine are the API a script drives: *Timer and
// *Engine implement them, and so do refTimer and refLoop.
type diffTimer interface {
	comparable
	Stop() bool
	Reschedule(delay Time, fn func())
	Retime(delay Time)
	Active() bool
}

type diffEngine[T diffTimer] interface {
	Schedule(delay Time, fn func()) T
	Post(delay Time, fn func())
	Run(until Time)
	RunAll()
	Now() Time
	Processed() uint64
	StoppedEvents() uint64
	MaxQueueLen() int
	QueueLen() int
}

// runScript interprets the script on one event loop and returns
// everything observable about the run.
func runScript[T diffTimer](e diffEngine[T], script []diffOp, slots int) diffOutcome {
	timers := make([]T, slots)
	var none T
	out := diffOutcome{}
	var callback func(op diffOp) func()
	callback = func(op diffOp) func() {
		return func() {
			out.fired = append(out.fired, diffFiring{e.Now(), op.id})
			switch op.act {
			case dactSchedule:
				child := diffOp{kind: dopSchedule, slot: op.actSlot, delay: op.actDly, id: op.childID}
				timers[child.slot] = e.Schedule(child.delay, callback(child))
			case dactPost:
				child := diffOp{kind: dopSchedule, post: true, delay: op.actDly, id: op.childID}
				e.Post(child.delay, callback(child))
			case dactStop:
				out.stops = append(out.stops, timers[op.actSlot].Stop())
			}
		}
	}
	for _, op := range script {
		switch op.kind {
		case dopSchedule:
			if op.post {
				e.Post(op.delay, callback(op))
			} else {
				timers[op.slot] = e.Schedule(op.delay, callback(op))
			}
		case dopStop:
			out.stops = append(out.stops, timers[op.slot].Stop())
		case dopResched:
			if timers[op.slot] != none {
				timers[op.slot].Reschedule(op.delay, callback(op))
			}
		case dopRetime:
			if tm := timers[op.slot]; tm != none && tm.Active() {
				tm.Retime(op.delay)
			}
		case dopRun:
			if op.delay >= 0 {
				e.Run(e.Now() + op.delay)
			}
		case dopRunAll:
			e.RunAll()
		}
	}
	e.RunAll()
	out.now = e.Now()
	out.processed = e.Processed()
	out.stopped = e.StoppedEvents()
	out.maxQueue = e.MaxQueueLen()
	out.queueLen = e.QueueLen()
	return out
}

func diffCompare(t *testing.T, seed int64, wheel, ref diffOutcome) {
	t.Helper()
	if len(wheel.fired) != len(ref.fired) {
		t.Fatalf("seed %d: wheel fired %d events, ref fired %d", seed, len(wheel.fired), len(ref.fired))
	}
	for i := range wheel.fired {
		if wheel.fired[i] != ref.fired[i] {
			t.Fatalf("seed %d: firing sequence diverges at %d: wheel (at=%v id=%d) vs ref (at=%v id=%d)",
				seed, i, wheel.fired[i].at, wheel.fired[i].id, ref.fired[i].at, ref.fired[i].id)
		}
	}
	if len(wheel.stops) != len(ref.stops) {
		t.Fatalf("seed %d: stop-call counts differ: %d vs %d", seed, len(wheel.stops), len(ref.stops))
	}
	for i := range wheel.stops {
		if wheel.stops[i] != ref.stops[i] {
			t.Fatalf("seed %d: Stop() return %d differs: wheel %v, ref %v", seed, i, wheel.stops[i], ref.stops[i])
		}
	}
	if wheel.now != ref.now || wheel.processed != ref.processed ||
		wheel.stopped != ref.stopped || wheel.queueLen != ref.queueLen ||
		wheel.maxQueue != ref.maxQueue {
		t.Fatalf("seed %d: summaries diverge:\nwheel %+v\nref   %+v",
			seed, summaryOnly(wheel), summaryOnly(ref))
	}
}

func summaryOnly(o diffOutcome) diffOutcome {
	o.fired, o.stops = nil, nil
	return o
}

func diffSeed(t *testing.T, seed int64, ops, slots int) {
	t.Helper()
	script := genScript(rand.New(rand.NewSource(seed)), ops, slots)
	wheel := runScript[*Timer](NewEngine(1), script, slots)
	ref := runScript[*refTimer](&refLoop{}, script, slots)
	diffCompare(t, seed, wheel, ref)
}

// TestQueueDifferentialFixedSeed runs a fixed batch of seeds, over a
// million mixed operations total, wheel vs reference loop, asserting
// identical firing sequences and accounting.
func TestQueueDifferentialFixedSeed(t *testing.T) {
	ops := 400_000
	if testing.Short() {
		ops = 40_000
	}
	for _, seed := range []int64{11, 28, 42} {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			diffSeed(t, seed, ops, 64)
		})
	}
}

// TestQueueDifferentialManySeeds sweeps many short scripts: breadth over
// depth, so narrow interleavings (tiny slot counts force dense reuse of
// timers across states) get coverage the long fixed-seed runs miss.
func TestQueueDifferentialManySeeds(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 25
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		diffSeed(t, seed, 800, 1+int(seed)%7)
	}
}

// TestQueueDifferentialRunBoundary pins Run(until) semantics with events
// at exactly `until`: the boundary event fires, the clock parks exactly
// at until, and a later Run resumes identically.
func TestQueueDifferentialRunBoundary(t *testing.T) {
	wheel(t, func(t *testing.T) {
		e := NewEngine(1)
		var got []int
		e.Schedule(2*time.Second, func() { got = append(got, 0) })
		e.Schedule(2*time.Second, func() { got = append(got, 1) }) // same boundary instant
		e.Schedule(2*time.Second+1, func() { got = append(got, 2) })
		e.Run(2 * time.Second)
		if len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Fatalf("events at exactly until: fired %v, want [0 1]", got)
		}
		if e.Now() != 2*time.Second {
			t.Fatalf("Now = %v, want exactly the until bound", e.Now())
		}
		e.RunAll()
		if len(got) != 3 || got[2] != 2 {
			t.Fatalf("resume after boundary: fired %v, want [0 1 2]", got)
		}
	})
}

// TestQueueDifferentialStopWithinCallback pins in-handler cancellation:
// a firing event stops a peer scheduled for the same instant, and a
// later one, both reporting true.
func TestQueueDifferentialStopWithinCallback(t *testing.T) {
	wheel(t, func(t *testing.T) {
		e := NewEngine(1)
		var got []int
		var peer, later *Timer
		e.Schedule(time.Second, func() {
			got = append(got, 0)
			if !peer.Stop() {
				t.Error("same-instant peer should still be stoppable")
			}
			if !later.Stop() {
				t.Error("later event should be stoppable")
			}
		})
		peer = e.Schedule(time.Second, func() { got = append(got, 1) })
		later = e.Schedule(time.Minute, func() { got = append(got, 2) })
		e.RunAll()
		if len(got) != 1 || got[0] != 0 {
			t.Fatalf("fired %v, want [0]", got)
		}
		if e.StoppedEvents() != 2 {
			t.Fatalf("StoppedEvents = %d, want 2", e.StoppedEvents())
		}
	})
}

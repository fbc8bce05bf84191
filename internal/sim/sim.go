// Package sim provides a deterministic discrete-event simulation engine.
//
// All components of the simulated cluster (network, disks, DFS, the
// MapReduce runtime) schedule work on a single Engine. Virtual time is a
// time.Duration measured from the start of the simulation. Events that
// share a timestamp fire in scheduling order, which makes every run with
// the same seed bit-for-bit reproducible.
//
// The engine is single-threaded by design: event handlers run one at a
// time, so simulated components need no locking. Parallelism across
// experiments is achieved by running independent engines in separate
// goroutines.
//
// The event queue is a hierarchical timing wheel (wheel.go): O(1)
// Schedule and Stop, with a small binary min-heap (heap.go) serving the
// imminent events in strict (at, seq) order. DESIGN.md §16 has the
// architecture notes.
//
// A handler can defer work to the end of its event with AfterEvent: the
// fair-share model uses it to run one bandwidth allocation per event
// however many flows the handler starts or stops, arming its completion
// timer as a placeholder and moving it to the real deadline with
// Timer.Retime.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured from the start of the run.
type Time = time.Duration

// Timer location tags: which queue structure currently holds the timer.
// locNone means the timer is not queued — it fired, was stopped, or was
// never armed.
const (
	locNone     uint8 = iota
	locReady          // the wheel's imminent-events heap
	locBucket         // linked into a wheel bucket list
	locOverflow       // the wheel's beyond-horizon heap
)

// Timer is a scheduled callback and its cancellation handle in one
// object: the queue stores *Timer directly, so scheduling an
// event costs a single allocation, and Reschedule re-arms an existing
// timer with no allocation at all. The zero value is not usable; timers
// are created by Engine.Schedule and Engine.At.
//
// The struct is laid out to stay within one 64-byte allocation class —
// the timer_churn benchmark budget (64 B/op, zero tolerance) pins that.
type Timer struct {
	eng *Engine
	at  Time
	seq uint64
	fn  func()
	// prev/next link the timer into a wheel bucket's intrusive
	// doubly-linked list while loc == locBucket; nil otherwise.
	prev, next *Timer
	// idx is the timer's position inside a timerHeap while loc is
	// locReady or locOverflow; -1 otherwise.
	idx int32
	// loc tags the structure that currently holds the timer; the single
	// source of truth for Active().
	loc uint8
	// lvl/slot address the wheel bucket while loc == locBucket, so
	// unlinking can fix the bucket's head/tail and occupancy bit in O(1).
	lvl  uint8
	slot uint8
}

// Stop cancels the timer. It reports whether the call prevented the event
// from firing (false when the event already fired or was stopped before).
//
// Stop removes the event from its queue immediately — an O(1) bucket
// unlink, or an O(log n) sift while the timer sits in the wheel's ready
// or overflow heap — so canceled timers cost nothing at pop time and
// never inflate the queue. This matters at paper scale: watchFetch and
// completion timers are stopped by the thousands, and retaining them
// until their deadline made the queue grow quadratically under
// fetch-session churn.
func (t *Timer) Stop() bool {
	if t == nil || t.loc == locNone {
		return false
	}
	e := t.eng
	e.q.remove(t)
	t.fn = nil // release the closure for GC
	e.stopsRemoved++
	return true
}

// Active reports whether the timer is still pending (not yet fired and
// not stopped).
func (t *Timer) Active() bool { return t != nil && t.loc != locNone }

// Reschedule re-arms the timer to run fn after delay of virtual time,
// reusing the allocation. It is behaviourally identical to Stop()
// followed by Engine.Schedule(delay, fn) — same sequence numbering, same
// stop accounting, same queue profile — so swapping the two forms cannot
// change event order. In particular, re-arming a timer that already
// fired or was stopped is legal and equivalent to a fresh Schedule: the
// stopsRemoved counter moves only when a still-pending event is
// displaced, exactly as Stop would have reported true. The contract is
// pinned by TestRescheduleContract. Hot paths that arm and re-arm one
// logical timer (the fair-share completion event, liveness pings) use it
// to stay allocation-free in the steady state.
func (t *Timer) Reschedule(delay Time, fn func()) {
	if fn == nil {
		panic("sim: Reschedule called with nil callback")
	}
	e := t.eng
	if t.loc != locNone {
		e.q.remove(t)
		e.stopsRemoved++
	}
	if delay < 0 {
		delay = 0
	}
	at := e.now + delay
	if at < e.now { // overflow clamp, mirroring Engine.At
		at = e.now
	}
	e.seq++
	t.at = at
	t.seq = e.seq
	t.fn = fn
	e.enqueue(t)
}

// Retime moves a pending timer to fire after delay of virtual time,
// keeping its callback and its sequence number. Unlike Reschedule it is
// not a new scheduling: it counts as neither a stop nor a schedule and
// leaves the queue length alone, so among events due at the same
// instant the timer keeps the place its last arming gave it. A caller
// that arms a placeholder with Reschedule(0, fn) and learns the real
// deadline later in the same event ends with exactly the timer, event
// order and accounting that Reschedule(delay, fn) would have produced.
// Retime panics when the timer is not pending.
func (t *Timer) Retime(delay Time) {
	if t.loc == locNone {
		panic("sim: Retime called on a timer that is not pending")
	}
	e := t.eng
	if delay < 0 {
		delay = 0
	}
	at := e.now + delay
	if at < e.now { // overflow clamp, mirroring Engine.At
		at = e.now
	}
	e.q.remove(t)
	t.at = at
	e.q.schedule(t)
}

// Engine is a discrete-event scheduler with a virtual clock.
type Engine struct {
	now     Time
	seq     uint64
	q       *wheelQueue
	rng     *rand.Rand
	stopped bool
	// Processed counts events that have fired; useful for loop guards in
	// tests and as a sanity metric.
	processed uint64
	// maxEvents aborts runaway simulations. Zero means no limit.
	maxEvents uint64
	// maxQueue tracks the high-water mark of the event queue — the
	// metric the queue-size microbenchmarks watch.
	maxQueue int
	// stopsRemoved counts events removed from the queue by Timer.Stop.
	stopsRemoved uint64
	// interruptFn, when set, is polled by Run every interruptEvery fired
	// events; Run returns when it reports true. interruptLeft counts down
	// to the next poll, so the hot loop pays one decrement and one
	// branch per event instead of the modulo it used before — no
	// allocation, no time source, so installing an interrupt cannot
	// perturb event order or the alloc budgets. BenchmarkRunInterrupt
	// pins the overhead.
	interruptFn    func() bool
	interruptEvery uint64
	interruptLeft  uint64
	// inEvent is true while Step runs an event handler (not its
	// after-event hooks).
	inEvent bool
	// afterEvent holds the hooks registered by the running handler, in
	// registration order. Step runs and clears them once the handler
	// returns; the slice keeps its capacity, so registering costs no
	// allocation in the steady state.
	afterEvent []func()
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), q: newWheelQueue()}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed returns the number of events fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// QueueLen returns the number of pending events.
func (e *Engine) QueueLen() int { return e.q.len() }

// MaxQueueLen returns the high-water mark of the event queue.
func (e *Engine) MaxQueueLen() int { return e.maxQueue }

// StoppedEvents returns how many scheduled events were removed from the
// queue by Timer.Stop before firing.
func (e *Engine) StoppedEvents() uint64 { return e.stopsRemoved }

// SetMaxEvents sets an upper bound on fired events; Run panics when the
// bound is exceeded. Zero disables the bound.
func (e *Engine) SetMaxEvents(n uint64) { e.maxEvents = n }

// SetInterrupt installs fn, polled by Run at event-loop boundaries —
// after every `every` fired events (0 means every event). When fn
// reports true the current Run call returns; the engine itself stays
// usable. The engine layer uses this to honour context cancellation
// without threading a context through every event handler.
func (e *Engine) SetInterrupt(every uint64, fn func() bool) {
	if every == 0 {
		every = 1
	}
	e.interruptEvery = every
	e.interruptLeft = every
	e.interruptFn = fn
}

// Schedule runs fn after delay of virtual time. A negative delay is
// treated as zero. It returns a Timer that can cancel the event.
func (e *Engine) Schedule(delay Time, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t. Times in the past are clamped to
// the current instant.
func (e *Engine) At(t Time, fn func()) *Timer {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	tm := &Timer{eng: e, at: t, seq: e.seq, fn: fn}
	e.enqueue(tm)
	return tm
}

// enqueue hands a timer to the queue and tracks the high-water mark.
func (e *Engine) enqueue(t *Timer) {
	e.q.schedule(t)
	if n := e.q.len(); n > e.maxQueue {
		e.maxQueue = n
	}
}

// InEvent reports whether an event handler is running: true inside the
// callback Step fires, false outside Step and inside after-event hooks.
func (e *Engine) InEvent() bool { return e.inEvent }

// AfterEvent registers fn to run once, after the running event handler
// returns and before the next event is popped. Hooks run in
// registration order with InEvent false, so anything they schedule or
// re-time is in the queue before Run looks at it again. A component that
// would otherwise redo the same work several times within one event
// defers it to a hook and does it once. AfterEvent panics outside an
// event handler.
func (e *Engine) AfterEvent(fn func()) {
	if !e.inEvent {
		panic("sim: AfterEvent called outside an event handler")
	}
	e.afterEvent = append(e.afterEvent, fn)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports whether any events remain. Stopped timers are removed
// from the queue eagerly, so it counts only live events.
func (e *Engine) Pending() bool { return e.q.len() > 0 }

// Step fires the next event, if any, and reports whether one fired.
func (e *Engine) Step() bool {
	tm := e.q.pop()
	if tm == nil {
		return false
	}
	if tm.at < e.now {
		panic(fmt.Sprintf("sim: time went backwards: %v -> %v", e.now, tm.at))
	}
	e.now = tm.at
	e.processed++
	if e.maxEvents != 0 && e.processed > e.maxEvents {
		panic(fmt.Sprintf("sim: exceeded max events (%d) at t=%v", e.maxEvents, e.now))
	}
	fn := tm.fn
	tm.fn = nil
	e.inEvent = true
	fn()
	e.inEvent = false
	if len(e.afterEvent) > 0 {
		for i, h := range e.afterEvent {
			e.afterEvent[i] = nil
			h()
		}
		e.afterEvent = e.afterEvent[:0]
	}
	return true
}

// Run fires events until the queue drains, Stop is called, or the clock
// passes until (events at exactly until still fire). When an event is
// left pending beyond until, the clock parks at until — never earlier
// than Now, so virtual time does not run backwards. Pass a negative
// until to run until the queue drains.
func (e *Engine) Run(until Time) {
	e.stopped = false
	for !e.stopped {
		// Peek without popping to honour the until bound.
		next := e.q.peek()
		if next == nil {
			return
		}
		if until >= 0 && next.at > until {
			e.now = max(e.now, until)
			return
		}
		e.Step()
		if e.interruptFn != nil {
			e.interruptLeft--
			if e.interruptLeft == 0 {
				e.interruptLeft = e.interruptEvery
				if e.interruptFn() {
					return
				}
			}
		}
	}
}

// RunAll fires events until none remain or Stop is called.
func (e *Engine) RunAll() { e.Run(-1) }

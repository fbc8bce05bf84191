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
// A handler can defer work to the end of its instant with AfterInstant:
// the hooks run once the events due at the current virtual time have
// fired, before the clock moves (or before a guarded timer pops). The
// fair-share model uses it to run one bandwidth allocation per instant
// however many flows the instant's handlers start or stop, arming its
// completion timer as a guarded placeholder and moving it to the real
// deadline with Timer.Retime.
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
//
// A timer armed by Engine.Post has no handle outside the engine: once it
// fires, Step parks it on the engine's free list, and the next Schedule,
// At or Post reuses it.
type Timer struct {
	eng *Engine
	at  Time
	seq uint64
	fn  func()
	// prev/next link the timer into a wheel bucket's intrusive
	// doubly-linked list while loc == locBucket; next also links the
	// engine's free list while the timer is parked there; nil otherwise.
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
	// posted marks a timer armed by Post, which Step recycles.
	posted bool
	// guarded marks a timer set by Guard: Step runs the pending
	// end-of-instant hooks before it pops one.
	guarded bool
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

// Guard marks the timer as guarded: before Step pops it, the pending
// end-of-instant hooks (AfterInstant) run, as they do before the clock
// moves. A component that arms a placeholder at the current instant and
// moves it to its real deadline in a hook guards it, so the placeholder
// is moved before it can fire. The mark stays through Stop, Reschedule
// and firing.
func (t *Timer) Guard() { t.guarded = true }

// Engine is a discrete-event scheduler with a virtual clock.
type Engine struct {
	now     Time
	seq     uint64
	q       *wheelQueue
	rng     *rand.Rand
	stopped bool
	// inEvent is true while Step runs an event handler (not while the
	// end-of-instant hooks run). It shares stopped's word, which keeps the
	// Engine in the 128 B size class with free below.
	inEvent bool
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
	// afterInstant holds the hooks registered by the current instant's
	// handlers, in registration order. next runs and clears them before
	// the clock moves or a guarded timer pops; the slice keeps its
	// capacity, so registering costs no allocation in the steady state.
	afterInstant []func()
	// free heads a list, linked through Timer.next, of posted timers
	// that have fired: no handle reaches them, so the next arming
	// reuses one.
	free *Timer
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
	return e.arm(t, fn, false)
}

// Post runs fn after delay of virtual time, like Schedule, but returns no
// handle, so the event cannot be stopped or re-armed. In exchange its
// Timer is recycled: Step parks it once it has taken fn, and the next
// Schedule, At or Post reuses it. Post consumes a sequence number and a
// queue slot exactly as Schedule does, so swapping one for the other
// where the handle is discarded moves no event. A negative delay is
// treated as zero.
func (e *Engine) Post(delay Time, fn func()) {
	if fn == nil {
		panic("sim: Post called with nil callback")
	}
	e.arm(e.now+max(delay, 0), fn, true)
}

// arm queues fn at t (clamped to now) on a parked timer when there is
// one, else on a new one.
func (e *Engine) arm(t Time, fn func(), posted bool) *Timer {
	if t < e.now {
		t = e.now
	}
	e.seq++
	tm := e.free
	if tm != nil {
		e.free = tm.next
		tm.next = nil
		tm.at, tm.seq, tm.fn, tm.posted = t, e.seq, fn, posted
	} else {
		tm = &Timer{eng: e, at: t, seq: e.seq, fn: fn, posted: posted}
	}
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
// callback Step fires, false outside Step and inside end-of-instant
// hooks.
func (e *Engine) InEvent() bool { return e.inEvent }

// AfterInstant registers fn to run once, at the end of the current
// instant: after the handler that registers it returns, once no event
// due at the current virtual time is left to fire ahead of a guarded
// timer. The hooks run before Step pops an event at a later time or a
// guarded timer, or finds the queue empty, and before Run returns on
// its until bound or on a drained queue. They run in registration order
// with InEvent false, at the instant they were registered, so anything
// they schedule or re-time is in the queue before the clock moves. A
// component that would otherwise redo the same work at every event of
// an instant defers it to a hook and does it once. AfterInstant panics
// outside an event handler.
func (e *Engine) AfterInstant(fn func()) {
	if !e.inEvent {
		panic("sim: AfterInstant called outside an event handler")
	}
	e.afterInstant = append(e.afterInstant, fn)
}

// endInstant runs and clears the pending end-of-instant hooks.
func (e *Engine) endInstant() {
	for i, h := range e.afterInstant {
		e.afterInstant[i] = nil
		h()
	}
	e.afterInstant = e.afterInstant[:0]
}

// next returns the timer Step pops next, or nil when the queue is
// empty. When hooks are pending and that timer is later than now,
// guarded, or absent, it runs the hooks first and looks again.
func (e *Engine) next() *Timer {
	tm := e.q.peek()
	if len(e.afterInstant) > 0 && (tm == nil || tm.at > e.now || tm.guarded) {
		e.endInstant()
		tm = e.q.peek()
	}
	return tm
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports whether any events remain. Stopped timers are removed
// from the queue eagerly, so it counts only live events.
func (e *Engine) Pending() bool { return e.q.len() > 0 }

// Step fires the next event, if any, and reports whether one fired.
func (e *Engine) Step() bool {
	tm := e.next()
	if tm == nil {
		return false
	}
	e.fire(tm)
	return true
}

// fire pops tm, the queue's head, advances the clock to it and runs its
// handler.
func (e *Engine) fire(tm *Timer) {
	e.q.pop()
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
	if tm.posted {
		tm.next = e.free
		e.free = tm
	}
	e.inEvent = true
	fn()
	e.inEvent = false
}

// Run fires events until the queue drains, Stop is called, or the clock
// passes until (events at exactly until still fire). When an event is
// left pending beyond until, the clock parks at until — never earlier
// than Now, so virtual time does not run backwards. Pass a negative
// until to run until the queue drains. Pending end-of-instant hooks run
// before Run returns on the until bound or on a drained queue; after
// Stop or an interrupt they wait for the next Step or Run.
func (e *Engine) Run(until Time) {
	e.stopped = false
	for !e.stopped {
		// Peek without popping to honour the until bound.
		next := e.next()
		if next == nil {
			return
		}
		if until >= 0 && next.at > until {
			e.endInstant()
			e.now = max(e.now, until)
			return
		}
		e.fire(next)
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

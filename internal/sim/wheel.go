package sim

import "math/bits"

// Hierarchical timing wheel (Linux-kernel/Kafka shape), specialised for
// the engine's workload: fetch watchdogs and liveness pings armed and
// stopped by the thousands, with only a tiny fraction ever firing.
//
// Virtual nanoseconds are quantised into ticks of 2^wheelTickBits ns
// (~524 µs). wheelLevels levels of wheelSlots power-of-two buckets cover
// ticks hierarchically: level 0 spans 64 ticks (~33.5 ms) at one tick
// per slot, each higher level spans 64× more at 64× coarser granularity,
// for a horizon of 64^5 ticks (~6.5 virtual days). Events beyond the
// horizon — or, precisely, outside the top-level frame that contains the
// wheel's current position — wait in a small overflow heap and are
// re-homed as the clock approaches.
//
// Buckets are intrusive doubly-linked Timer lists, so Schedule is an
// O(levels) index computation plus a list append, and Stop is a pure
// O(1) unlink, where a binary heap over every pending timer would pay an
// O(log n) sift-remove. A per-level occupancy bitmap (one uint64 for the
// 64 slots) lets the clock advance to the next pending event with bit
// arithmetic instead of scanning empty buckets, which matters because
// virtual time routinely jumps seconds at a stroke.
//
// Determinism contract (the part that lets every golden in the repo stay
// byte-identical): events must fire in strict (at, seq) order even
// though bucket quantisation groups distinct timestamps. The wheel
// therefore never serves events straight from a bucket. Advancing drains
// the earliest bucket into `ready`, a small (at, seq) min-heap, and
// peek/pop serve only from ready. Invariants, maintained by
// construction and checked by the differential tester against a
// sorted-list reference loop:
//
//	I1. every bucketed timer's tick is  > curTick, and every level-l
//	    bucket's timers share one exact value of tick>>(6l) that is in
//	    the same level-(l+1) frame as curTick;
//	I2. every ready timer's tick is    <= curTick;
//	I3. every overflow timer's tick is outside curTick's top-level frame
//	    (and therefore > curTick);
//	I4. curTick never passes the tick of a pending timer.
//
// I1-I3 give ready.min < every bucketed or overflowed timer (strictly,
// because tick quantisation is monotone), so serving from the ready heap
// yields the exact global (at, seq) order.
const (
	wheelTickBits = 19 // one tick = 2^19 ns ≈ 524 µs of virtual time
	wheelSlotBits = 6
	wheelSlots    = 1 << wheelSlotBits
	wheelSlotMask = wheelSlots - 1
	wheelLevels   = 5
	// wheelFrameBits is the width of a tick address inside one top-level
	// frame; ticks differing above this bit are overflow to each other.
	wheelFrameBits = wheelSlotBits * wheelLevels
)

// wheelBucket is one intrusive doubly-linked list of timers.
type wheelBucket struct {
	head, tail *Timer
}

// wheelQueue is the engine's event queue. The Engine guarantees
// single-threaded access and that every scheduled timer has at >= the
// engine clock; peek/pop yield pending timers in strict (at, seq) order.
// peek may cascade buckets to locate the minimum but never changes the
// firing sequence.
type wheelQueue struct {
	// curTick is the level-0 tick the wheel has advanced to; see the
	// invariants above.
	curTick int64
	// size counts every pending timer across ready, buckets and
	// overflow.
	size int
	// ready holds timers whose tick is <= curTick in exact (at, seq)
	// order; peek/pop serve exclusively from it.
	ready timerHeap
	// overflow holds timers outside curTick's top-level frame.
	overflow timerHeap
	// occupied[l] has bit s set iff buckets[l][s] is non-empty.
	occupied [wheelLevels]uint64
	buckets  [wheelLevels][wheelSlots]wheelBucket
}

func newWheelQueue() *wheelQueue {
	return &wheelQueue{
		ready:    timerHeap{loc: locReady},
		overflow: timerHeap{loc: locOverflow},
	}
}

// wheelTick quantises a virtual timestamp to its level-0 tick.
func wheelTick(at Time) int64 { return int64(at) >> wheelTickBits }

func (w *wheelQueue) len() int { return w.size }

func (w *wheelQueue) schedule(t *Timer) {
	w.size++
	w.place(t, wheelTick(t.at))
}

// place routes one timer to ready, a bucket, or overflow according to
// its tick. The level rule: the timer goes to the lowest level l whose
// parent frame (granularity 64^(l+1) ticks) still contains curTick —
// the classic hierarchical-clock rule (same hour → minute wheel, same
// minute → second wheel).
func (w *wheelQueue) place(t *Timer, tick int64) {
	if tick <= w.curTick {
		w.ready.push(t)
		return
	}
	for lvl := 0; lvl < wheelLevels; lvl++ {
		shift := uint(wheelSlotBits * (lvl + 1))
		if tick>>shift == w.curTick>>shift {
			w.link(t, uint8(lvl), uint8((tick>>(shift-wheelSlotBits))&wheelSlotMask))
			return
		}
	}
	w.overflow.push(t)
}

// link appends t to the bucket at (lvl, slot).
func (w *wheelQueue) link(t *Timer, lvl, slot uint8) {
	t.loc = locBucket
	t.lvl = lvl
	t.slot = slot
	b := &w.buckets[lvl][slot]
	t.prev = b.tail
	t.next = nil
	if b.tail != nil {
		b.tail.next = t
	} else {
		b.head = t
	}
	b.tail = t
	w.occupied[lvl] |= 1 << slot
}

// unlink removes t from its bucket in O(1), clearing the occupancy bit
// when the bucket empties.
func (w *wheelQueue) unlink(t *Timer) {
	b := &w.buckets[t.lvl][t.slot]
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		b.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		b.tail = t.prev
	}
	t.prev, t.next = nil, nil
	if b.head == nil {
		w.occupied[t.lvl] &^= 1 << t.slot
	}
	t.loc = locNone
}

func (w *wheelQueue) remove(t *Timer) {
	switch t.loc {
	case locReady:
		w.ready.remove(t)
	case locOverflow:
		w.overflow.remove(t)
	default:
		w.unlink(t)
	}
	w.size--
}

func (w *wheelQueue) peek() *Timer {
	if w.ready.len() == 0 {
		if w.size == 0 {
			return nil
		}
		w.advance()
	}
	return w.ready.peek()
}

func (w *wheelQueue) pop() *Timer {
	t := w.peek()
	if t == nil {
		return nil
	}
	w.ready.pop()
	w.size--
	return t
}

// advance moves curTick forward to the earliest pending event and fills
// ready. Each loop iteration does one of three strictly-progressing
// things: drain the earliest level-0 bucket into ready (done), cascade
// the earliest level-l>=1 bucket down a level (each timer drops at least
// one level, by I1), or pull overflow timers into the wheel (each is
// re-homed at most once per top-level frame it crosses). Called only
// with ready empty and size > 0.
func (w *wheelQueue) advance() {
	for w.ready.len() == 0 {
		// Re-home overflow timers whose tick has come inside the current
		// top-level frame.
		for w.overflow.len() > 0 {
			t := w.overflow.peek()
			tick := wheelTick(t.at)
			if tick>>wheelFrameBits != w.curTick>>wheelFrameBits {
				break
			}
			w.overflow.pop()
			w.place(t, tick)
		}
		// Re-homing may have landed timers directly in ready (their tick
		// is <= curTick after a jump below); stop before scanning, or an
		// otherwise-empty wheel would mistake itself for a lost timer.
		if w.ready.len() > 0 {
			return
		}
		// Find the earliest candidate bucket across levels. A level-l
		// bucket d slots ahead of the current position cannot hold a
		// timer earlier than its frame start (pos+d)<<(6l); the bitmap
		// rotation turns "next occupied slot at or after pos" into a
		// trailing-zero count. Ties prefer the highest level (iterating
		// upward with <=) so coarse buckets cascade down and merge
		// before the fine bucket at the same boundary drains.
		bestLvl := -1
		var bestTick int64
		for lvl := 0; lvl < wheelLevels; lvl++ {
			occ := w.occupied[lvl]
			if occ == 0 {
				continue
			}
			shift := uint(wheelSlotBits * lvl)
			pos := w.curTick >> shift
			rot := bits.RotateLeft64(occ, -int(pos&wheelSlotMask))
			d := int64(bits.TrailingZeros64(rot))
			if cand := (pos + d) << shift; bestLvl < 0 || cand <= bestTick {
				bestLvl, bestTick = lvl, cand
			}
		}
		if bestLvl < 0 {
			// Wheel empty: jump straight to the overflow minimum's
			// frame; the re-home loop above picks it up next iteration.
			w.curTick = wheelTick(w.overflow.peek().at)
			continue
		}
		// Advance to the bucket's frame start and drain it: a level-0
		// bucket's timers all share tick == bestTick == curTick, so
		// place moves them to ready; a higher bucket's timers now share
		// their level-l frame with curTick, so place drops each at
		// least one level down.
		w.curTick = bestTick
		shift := uint(wheelSlotBits * bestLvl)
		b := &w.buckets[bestLvl][(bestTick>>shift)&wheelSlotMask]
		head := b.head
		b.head, b.tail = nil, nil
		w.occupied[bestLvl] &^= 1 << uint8((bestTick>>shift)&wheelSlotMask)
		for t := head; t != nil; {
			next := t.next
			t.prev, t.next = nil, nil
			w.place(t, wheelTick(t.at))
			t = next
		}
	}
}

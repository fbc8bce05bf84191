// Package fairshare implements a flow-level max-min fair bandwidth-sharing
// model on top of the discrete-event engine.
//
// A System owns a set of Ports (capacity constraints in bytes/second) and
// Flows. Each flow crosses one or more ports — a network transfer crosses
// the source egress port and the destination ingress port; a disk request
// crosses a single disk port. At any instant, flow rates are the max-min
// fair allocation subject to every port's capacity. Whenever the flow set
// or a capacity changes, rates are recomputed and the next completion
// event is rescheduled — at most once per engine event: changes made
// inside one event handler share a single allocation, run when the
// handler returns (DESIGN.md §10).
//
// This is the standard flow-level abstraction used by cluster simulators:
// it captures bandwidth contention (the dominant effect in bulk MapReduce
// phases) without simulating packets or disk blocks.
package fairshare

import (
	"fmt"
	"math"
	"time"

	"alm/internal/sim"
)

// Port is a capacity constraint shared by the flows that cross it.
type Port struct {
	name   string
	prefix uint64 // namePrefix(name)
	// seq is the port's creation number within its System (refreshed
	// when a cap port is recycled): the last bottleneck tie-break, after
	// share and name, so the choice never depends on iteration order.
	seq      uint64
	capacity float64 // bytes per second; 0 means the port is down
	sys      *System
	// flows holds one entry per crossing. Each entry records which of
	// the flow's links points back here, so a flow leaves in O(1) by
	// swap-remove.
	flows []crossing

	// allocate() scratch, valid only while p.allocEpoch == sys.allocEpoch.
	// Epoch tagging lets the hot path reuse ports across allocation passes
	// without per-call map construction (rates are recomputed on every
	// flow start/finish, so this is the simulator's hottest loop).
	allocEpoch uint64
	residual   float64
	unfrozen   int
	id         int32 // pass-local id: index into sys.heap.ports and .pos
}

// crossing is a port's record of one flow crossing it.
type crossing struct {
	f    *Flow
	link int // index into f.links of the link to this port
}

// link is a flow's record of one port it crosses.
type link struct {
	port *Port
	slot int // index into port.flows of the crossing back to the flow
}

// Name returns the port's diagnostic name.
func (p *Port) Name() string { return p.name }

// Capacity returns the port's capacity in bytes/second.
func (p *Port) Capacity() float64 { return p.capacity }

// SetCapacity changes the port capacity and reallocates flow rates.
// Setting capacity to zero stalls all flows crossing the port.
func (p *Port) SetCapacity(c float64) {
	if c < 0 {
		c = 0
	}
	if p.capacity == c {
		return
	}
	p.setCapacity(c)
	p.sys.reschedule()
}

// setCapacity sets the capacity and keeps the System's stalled count
// current when the port starts or stops carrying traffic.
func (p *Port) setCapacity(c float64) {
	if was, now := carries(p.capacity), carries(c); was != now {
		d := int32(1)
		if now {
			d = -1
		}
		for _, x := range p.flows {
			x.f.addDead(d)
		}
	}
	p.capacity = c
}

// minCarry is the smallest capacity that counts as carrying traffic.
// A flow whose ports all carry gets a rate of at least capacity/flows
// at its bottleneck, and with capacity >= minCarry that leaves its
// completion time finite; below it a share can underflow to zero or a
// completion time overflow to +Inf.
const minCarry = 1e-100

// carries reports whether a port of capacity c is sure to give every
// flow crossing it a positive rate and a finite completion time: c is
// finite and at least minCarry. Zero (a downed port), +Inf and NaN do
// not carry.
func carries(c float64) bool { return c >= minCarry && c <= math.MaxFloat64 }

// ActiveFlows returns the number of flows currently crossing the port. A
// flow that lists the port more than once counts once.
func (p *Port) ActiveFlows() int {
	n := 0
	for _, c := range p.flows {
		if c.f.firstLink(p) == c.link {
			n++
		}
	}
	return n
}

// drop swap-removes the crossing at slot.
func (p *Port) drop(slot int) {
	last := len(p.flows) - 1
	if slot != last {
		moved := p.flows[last]
		p.flows[slot] = moved
		moved.f.links[moved.link].slot = slot
	}
	p.flows[last] = crossing{}
	p.flows = p.flows[:last]
}

// Flow is an in-progress transfer of a fixed number of bytes across a set
// of ports.
type Flow struct {
	name string
	seq  uint64
	sys  *System
	// links lists the ports the flow crosses; the private cap port, when
	// there is one, is always last.
	links     []link
	capPort   *Port // non-nil when the flow has a private rate cap
	idx       int   // position in sys.flows while the flow is active
	remaining float64
	rate      float64
	done      func()
	finished  bool
	canceled  bool
	// frozen is allocate() scratch: whether the flow's rate is fixed in
	// the current progressive-filling pass.
	frozen bool
	// dead counts the flow's links to ports that do not carry (see
	// carries); the flow is stalled while it is positive. It packs into
	// the word the flags above leave open, so the struct keeps its size
	// class.
	dead int32
}

// Name returns the flow's diagnostic name.
func (f *Flow) Name() string { return f.name }

// Rate returns the flow's current allocated rate in bytes/second, 0 once
// the flow has finished or been canceled. Inside an event handler that
// has changed the flow set, it runs the pending allocation first.
func (f *Flow) Rate() float64 {
	if f.sys.dirty {
		f.sys.flush()
	}
	return f.rate
}

// Remaining returns the bytes left to transfer as of the current virtual
// instant.
func (f *Flow) Remaining() float64 {
	f.sys.advance()
	return f.remaining
}

// Done reports whether the flow completed normally.
func (f *Flow) Done() bool { return f.finished }

// Canceled reports whether the flow was canceled.
func (f *Flow) Canceled() bool { return f.canceled }

// Cancel removes the flow without invoking its completion callback.
// Canceling a finished or already-canceled flow is a no-op.
func (f *Flow) Cancel() {
	if f.finished || f.canceled {
		return
	}
	f.sys.advance()
	f.canceled = true
	f.sys.remove(f)
	f.sys.reschedule()
}

// SetPriorityCap changes the flow's private rate cap (bytes/second).
// A cap <= 0 removes the cap.
func (f *Flow) SetPriorityCap(rate float64) {
	if f.finished || f.canceled {
		return
	}
	f.sys.advance()
	if rate <= 0 {
		if f.capPort != nil {
			// Drop the private port, always the last link, and recycle
			// the struct.
			last := len(f.links) - 1
			f.capPort.drop(f.links[last].slot)
			f.links = f.links[:last]
			if !carries(f.capPort.capacity) {
				f.addDead(-1)
			}
			f.sys.capPortFree = append(f.sys.capPortFree, f.capPort)
			f.capPort = nil
		}
	} else if f.capPort != nil {
		f.capPort.setCapacity(rate)
	} else {
		p := f.sys.newCapPort(f.name, rate)
		f.capPort = p
		f.attach(p)
	}
	f.sys.reschedule()
}

// attach links the flow, which must be live, to p.
func (f *Flow) attach(p *Port) {
	f.links = append(f.links, link{port: p, slot: len(p.flows)})
	p.flows = append(p.flows, crossing{f: f, link: len(f.links) - 1})
	if !carries(p.capacity) {
		f.addDead(1)
	}
}

// addDead moves the live flow's count of non-carrying links by d and
// the System's stalled count with it when the flow stalls or unstalls.
func (f *Flow) addDead(d int32) {
	was := f.dead > 0
	f.dead += d
	if now := f.dead > 0; now != was {
		if now {
			f.sys.stalled++
		} else {
			f.sys.stalled--
		}
	}
}

// firstLink returns the index of the flow's first link to p, or -1.
func (f *Flow) firstLink(p *Port) int {
	for k, l := range f.links {
		if l.port == p {
			return k
		}
	}
	return -1
}

// Stats counts allocator work. Both counts depend only on the sequence of
// flow and capacity changes, never on the host.
type Stats struct {
	// Passes is the number of max-min allocations over a non-empty flow
	// set: at most one per event that changes flows, plus one per change
	// made outside an event or while every flow is stalled, and one per
	// Flow.Rate call that finds an allocation pending.
	Passes uint64
	// Rounds is the number of bottleneck ports frozen, summed over all
	// passes.
	Rounds uint64
}

// System ties ports and flows to a simulation engine.
type System struct {
	eng        *sim.Engine
	flows      []*Flow
	lastUpdate sim.Time
	completion *sim.Timer
	nextSeq    uint64
	nextPort   uint64
	stats      Stats

	// onCompletionFn and flushFn are the method values bound once at
	// construction so reschedule — the hottest call site in the
	// simulator — does not allocate a fresh closure per flow
	// start/finish.
	onCompletionFn func()
	flushFn        func()

	// stalled counts the live flows that cross at least one port that
	// does not carry (Flow.dead > 0). While len(flows) > stalled, an
	// allocation is sure to leave some flow a finite completion time,
	// which is what makes deferring it exact (reschedule).
	stalled int
	// dirty is set while an allocation deferred by reschedule waits for
	// flush, which runs after the current event's handler returns.
	dirty bool

	// allocate() scratch, reused across calls: the pass epoch and the
	// bottleneck heap.
	allocEpoch uint64
	heap       bottleneckHeap

	// onCompletion scratch, reused across completion events.
	finishedScratch []*Flow

	// capPortFree recycles the private rate-cap ports that capped flows
	// create and abandon on completion. The event loop is single-
	// goroutine, so a plain slice free list is race-free; reuse never
	// crosses runs because the System itself is per-run.
	capPortFree []*Port
}

// NewSystem returns a fair-share system bound to the engine.
func NewSystem(e *sim.Engine) *System {
	s := &System{eng: e}
	s.onCompletionFn = s.onCompletion
	s.flushFn = s.flush
	return s
}

// Stats returns the allocator work done so far.
func (s *System) Stats() Stats { return s.stats }

// NewPort creates a port with the given capacity in bytes/second.
func (s *System) NewPort(name string, capacity float64) *Port {
	if capacity < 0 {
		panic(fmt.Sprintf("fairshare: negative capacity for port %s", name))
	}
	return s.newPortInternal(name, capacity)
}

func (s *System) newPortInternal(name string, capacity float64) *Port {
	s.nextPort++
	return &Port{name: name, prefix: namePrefix(name), seq: s.nextPort, capacity: capacity, sys: s}
}

// newCapPort returns a private rate-cap port, reusing a recycled struct
// (and its emptied flow list) when one is available. The name string is
// rebuilt identically either way and the creation number is fresh, so
// pooling does not perturb the bottleneck tie-break.
func (s *System) newCapPort(flowName string, rate float64) *Port {
	if n := len(s.capPortFree); n > 0 {
		p := s.capPortFree[n-1]
		s.capPortFree[n-1] = nil
		s.capPortFree = s.capPortFree[:n-1]
		s.nextPort++
		p.name = flowName + "/cap"
		p.prefix = namePrefix(p.name)
		p.seq = s.nextPort
		p.capacity = rate
		return p
	}
	return s.newPortInternal(flowName+"/cap", rate)
}

// StartFlow begins transferring bytes across the given ports, calling
// done (if non-nil) when the last byte arrives. maxRate > 0 imposes a
// private rate cap. A flow of zero (or negative) bytes completes at the
// current instant, with done deferred to a fresh engine event.
func (s *System) StartFlow(name string, bytes int64, ports []*Port, maxRate float64, done func()) *Flow {
	s.advance()
	s.nextSeq++
	f := &Flow{name: name, seq: s.nextSeq, sys: s, remaining: float64(bytes), done: done}
	if len(ports) == 0 && maxRate <= 0 {
		// Unconstrained (e.g., node-local loopback): instantaneous.
		f.remaining = 0
	}
	if f.remaining <= 0 {
		f.finished = true
		if done != nil {
			s.eng.Schedule(0, done)
		}
		return f
	}
	// The flow joins s.flows before it attaches, so attach can count it
	// as stalled.
	f.idx = len(s.flows)
	s.flows = append(s.flows, f)
	f.links = make([]link, 0, len(ports)+1)
	for _, p := range ports {
		if p == nil {
			panic("fairshare: nil port in StartFlow")
		}
		f.attach(p)
	}
	if maxRate > 0 {
		cp := s.newCapPort(name, maxRate)
		f.capPort = cp
		f.attach(cp)
	}
	s.reschedule()
	return f
}

// ActiveFlows returns the number of in-flight flows.
func (s *System) ActiveFlows() int { return len(s.flows) }

func (s *System) remove(f *Flow) {
	last := len(s.flows) - 1
	moved := s.flows[last]
	s.flows[f.idx] = moved
	moved.idx = f.idx
	s.flows[last] = nil
	s.flows = s.flows[:last]
	// A flow that left carries nothing. Zeroing the rate also keeps it
	// independent of whether the passes of the event that removed it
	// ran one by one or as one.
	f.rate = 0
	if f.dead > 0 {
		s.stalled--
	}
	// Index on every step: dropping one crossing can move another of
	// this flow's crossings (a port listed twice) and rewrite its slot.
	for k := range f.links {
		l := f.links[k]
		l.port.drop(l.slot)
	}
	if f.capPort != nil {
		// The private cap port is reachable only through this flow;
		// recycle it (its flow list is empty again after the loop above).
		s.capPortFree = append(s.capPortFree, f.capPort)
		f.capPort = nil
	}
}

// advance applies progress at the current rates since the last update.
func (s *System) advance() {
	now := s.eng.Now()
	dt := now - s.lastUpdate
	s.lastUpdate = now
	if dt <= 0 {
		return
	}
	secs := dt.Seconds()
	for _, f := range s.flows {
		f.remaining -= f.rate * secs
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// reschedule recomputes the max-min fair rates and re-arms the next
// completion event after a change to the flow set or a capacity.
//
// Inside an event handler, while some live flow is not stalled, it does
// not allocate. That pass is then sure to leave some flow a finite
// completion time, so the eager code would re-arm the timer here with
// Reschedule; reschedule makes the same Reschedule call with a
// placeholder delay of zero — the same sequence number, stop count and
// queue length — and flush, run once after the handler returns, does
// the one allocation and moves the timer to its real deadline with
// Retime, which keeps the sequence number. Every other change runs the
// allocation now, as the eager code did.
func (s *System) reschedule() {
	s.advance()
	if s.eng.InEvent() && len(s.flows) > s.stalled {
		s.arm(0)
		if !s.dirty {
			s.dirty = true
			s.eng.AfterEvent(s.flushFn)
		}
		return
	}
	s.dirty = false
	s.allocate()
	first := s.firstCompletion()
	if math.IsInf(first, 1) {
		if s.completion != nil {
			s.completion.Stop()
		}
		return
	}
	s.arm(secondsToDuration(first))
}

// arm re-arms the single completion timer after delay. Reschedule is
// ordering-equivalent to Stop-then-Schedule but reuses the timer and
// the pre-bound onCompletionFn, which together were the top allocation
// sites under fetch-session churn.
func (s *System) arm(delay time.Duration) {
	if s.completion == nil {
		s.completion = s.eng.Schedule(delay, s.onCompletionFn)
	} else {
		s.completion.Reschedule(delay, s.onCompletionFn)
	}
}

// flush runs the allocation reschedule deferred, if one is pending, and
// moves the placeholder completion timer to the real deadline.
func (s *System) flush() {
	if !s.dirty {
		return
	}
	s.dirty = false
	s.allocate()
	first := s.firstCompletion()
	if math.IsInf(first, 1) {
		panic("fairshare: deferred allocation left no flow a finite completion time")
	}
	s.completion.Retime(secondsToDuration(first))
}

// firstCompletion returns the seconds until the earliest completion
// among flows with a positive rate, or +Inf when none has one.
func (s *System) firstCompletion() float64 {
	first := math.Inf(1)
	for _, f := range s.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < first {
			first = t
		}
	}
	return first
}

func (s *System) onCompletion() {
	s.advance()
	finished := s.finishedScratch[:0]
	for _, f := range s.flows {
		if f.remaining <= completionEpsilon {
			finished = append(finished, f)
		}
	}
	// Completion callbacks fire in flow-creation order: removals permute
	// s.flows, so sort by sequence number to keep simulations
	// reproducible.
	sortFlows(finished)
	for _, f := range finished {
		f.finished = true
		s.remove(f)
	}
	s.reschedule()
	for _, f := range finished {
		if f.done != nil {
			f.done()
		}
	}
	// Drop flow references before parking the scratch so the pool does
	// not pin completed flows (and their done closures) for the run.
	for i := range finished {
		finished[i] = nil
	}
	s.finishedScratch = finished[:0]
}

const completionEpsilon = 0.5 // half a byte

func sortFlows(fs []*Flow) {
	// Insertion sort: the finished set is nearly always tiny.
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].seq < fs[j-1].seq; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// allocate computes max-min fair rates via progressive filling: repeatedly
// take the port with the smallest per-flow fair share, freeze its flows at
// that rate, subtract their consumption everywhere, and continue.
//
// The ports of the live flows sit in an indexed min-heap keyed on
// (share, name, seq), where share is residual/float64(unfrozen), so a
// pass costs O((ports + flow·port incidences) · log ports). The ports a
// frozen flow crosses are re-keyed lazily. In exact arithmetic a freeze
// at s <= r/u only raises (r-s)/(u-1); a raised key is re-sifted only
// once it reaches the top, so every stored key is at most the true one
// and the top is the true minimum whenever its key is current. Rounding
// at s == r/u and the residual clamp at 0 can lower a key instead; that
// one is re-sifted at once, and fix moves it either way. A port whose
// flows have all frozen is dropped when it surfaces, and the pass ends
// when no flow is left to freeze.
//
// Every step is independent of the order of s.flows and port.flows: the
// key order is total, and a port's residual takes the same share k times
// within a round whichever of its flows freezes first.
func (s *System) allocate() {
	if len(s.flows) == 0 {
		return
	}
	s.stats.Passes++
	s.allocEpoch++
	h := &s.heap
	h.reset()
	remaining := 0
	for _, f := range s.flows {
		f.rate = 0
		for _, l := range f.links {
			p := l.port
			if p.allocEpoch != s.allocEpoch {
				p.allocEpoch = s.allocEpoch
				p.residual = p.capacity
				p.unfrozen = 0
				p.id = h.add(p)
			}
			p.unfrozen++
		}
		if len(f.links) == 0 {
			// Unconstrained flow: complete "instantly" at a huge rate.
			f.rate = math.MaxFloat64 / 4
			f.frozen = true
		} else {
			f.frozen = false
			remaining++
		}
	}
	h.init()
	for remaining > 0 {
		top := &h.entries[0]
		bottleneck := h.ports[top.id]
		if bottleneck.unfrozen == 0 {
			// Its flows all froze at other ports' shares.
			h.removeAt(0)
			continue
		}
		share := bottleneck.residual / float64(bottleneck.unfrozen)
		if share != top.share {
			// A raised key, re-sifted now that it surfaced.
			top.share = share
			h.fix(0)
			continue
		}
		if !(share < math.Inf(1)) {
			// Every port left has an unbounded share: no port binds, and
			// the remaining flows keep rate 0.
			break
		}
		h.removeAt(0)
		s.stats.Rounds++
		if share < 0 {
			share = 0
		}
		// Freeze every unfrozen flow crossing the bottleneck at the share.
		for _, c := range bottleneck.flows {
			f := c.f
			if f.frozen {
				continue
			}
			f.rate = share
			f.frozen = true
			remaining--
			for _, l := range f.links {
				p := l.port
				p.residual -= share
				if p.residual < 0 {
					p.residual = 0
				}
				p.unfrozen--
				// Re-key p unless it is the popped bottleneck or has
				// nothing left to freeze.
				i := int(h.pos[p.id])
				if i >= 0 && p.unfrozen > 0 {
					if ps := p.residual / float64(p.unfrozen); ps < h.entries[i].share {
						h.entries[i].share = ps
						h.fix(i)
					}
				}
			}
		}
	}
}

func secondsToDuration(s float64) time.Duration {
	if s < 0 {
		return 0
	}
	ns := s * 1e9
	if ns > math.MaxInt64/2 {
		return time.Duration(math.MaxInt64 / 2)
	}
	// Round up so the completion event never lands before the last byte.
	return time.Duration(math.Ceil(ns))
}

// Package fairshare implements a flow-level max-min fair bandwidth-sharing
// model on top of the discrete-event engine.
//
// A System owns a set of Ports (capacity constraints in bytes/second) and
// Flows. Each flow crosses one or more ports — a network transfer crosses
// the source egress port and the destination ingress port; a disk request
// crosses a single disk port. At any instant, flow rates are the max-min
// fair allocation subject to every port's capacity. Whenever the flow set
// or a capacity changes, rates are recomputed and the next completion
// event is rescheduled — about once per simulated instant: changes made
// by the event handlers of one instant share a single allocation, run
// before the clock moves. An allocation recomputes only the connected
// components (flows joined by shared ports) that hold a port changed
// since the last one; every other flow keeps its rate, which is
// bit-identical to what a whole-system pass would give it (DESIGN.md
// §10).
//
// This is the standard flow-level abstraction used by cluster simulators:
// it captures bandwidth contention (the dominant effect in bulk MapReduce
// phases) without simulating packets or disk blocks.
package fairshare

import (
	"fmt"
	"math"
	"strings"
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

	// touchEpoch is sys.allocEpoch+1 while the port is listed in
	// sys.touched, the ports changed since the last pass.
	touchEpoch uint64
}

// crossing is a port's record of one flow crossing it.
type crossing struct {
	f    *flow
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
// Setting capacity to zero stalls all flows crossing the port. A NaN
// capacity panics.
func (p *Port) SetCapacity(c float64) {
	checkCapacity(c, p.name, "")
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
	p.sys.touch(p)
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

// Flow is a handle to a transfer of a fixed number of bytes across a set
// of ports. It is a small value: copy it freely, keep it as long as you
// like. While the transfer runs the handle reaches it; once it has
// completed or been canceled the handle is stale: Ended reports true,
// Rate and Remaining report 0, Name reports "", and Cancel and
// SetPriorityCap do nothing. The zero Flow is stale.
//
// A stale handle stays inert even after its System has reused the
// transfer's storage for a later flow: each reuse bumps the storage's
// generation, and the handle's copy no longer matches.
type Flow struct {
	f   *flow
	gen uint32
}

// flow is the storage of one in-progress transfer. A System recycles it
// (release) when the transfer completes or is canceled.
type flow struct {
	name string
	seq  uint64
	sys  *System
	// links lists the ports the flow crosses; the private cap port, when
	// there is one, is always last.
	links   []link
	capPort *Port // non-nil when the flow has a private rate cap
	idx     int32 // position in sys.flows while the flow is active
	// epoch is allocate() scratch: the low 32 bits of the pass that last
	// gathered the flow. It packs beside idx, so the struct keeps its
	// size class.
	epoch     uint32
	remaining float64
	rate      float64
	done      func()
	// frozen is allocate() scratch: whether the flow's rate is fixed in
	// the current progressive-filling pass.
	frozen bool
	// dead counts the flow's links to ports that do not carry (see
	// carries); the flow is stalled while it is positive.
	dead int32
	// gen is the storage's generation: a handle reaches the flow while
	// its gen matches, and release bumps it. With the flags above it
	// keeps the struct in the 112 B size class (TestFlowSizeClass).
	gen uint32
}

// live returns the flow h reaches, or nil when h is stale.
func (h Flow) live() *flow {
	if h.f == nil || h.f.gen != h.gen {
		return nil
	}
	return h.f
}

// Ended reports whether the flow has completed or been canceled. It is
// true from the moment the flow leaves the system: a completed flow's
// handle already reads ended when its completion callback runs.
func (h Flow) Ended() bool { return h.live() == nil }

// Name returns the flow's diagnostic name, "" once it has ended.
func (h Flow) Name() string {
	if f := h.live(); f != nil {
		return f.name
	}
	return ""
}

// Rate returns the flow's current allocated rate in bytes/second, 0 once
// the flow has ended. Inside an event handler that has changed the flow
// set, it runs the pending allocation first.
func (h Flow) Rate() float64 {
	f := h.live()
	if f == nil {
		return 0
	}
	if f.sys.dirty {
		f.sys.flush()
	}
	return f.rate
}

// Remaining returns the bytes left to transfer as of the current virtual
// instant, 0 once the flow has ended.
func (h Flow) Remaining() float64 {
	f := h.live()
	if f == nil {
		return 0
	}
	f.sys.advance()
	return f.remaining
}

// Cancel removes the flow without invoking its completion callback.
// Canceling an ended flow is a no-op.
func (h Flow) Cancel() {
	f := h.live()
	if f == nil {
		return
	}
	s := f.sys
	s.advance()
	s.remove(f)
	s.reschedule()
}

// SetPriorityCap changes the flow's private rate cap (bytes/second).
// A cap <= 0 removes the cap; a NaN cap on a running flow panics. On an
// ended flow it is a no-op.
func (h Flow) SetPriorityCap(rate float64) {
	f := h.live()
	if f == nil {
		return
	}
	checkCapacity(rate, f.name, "/cap")
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
			// The cap port no longer reaches the flow; its other ports do.
			for _, l := range f.links {
				f.sys.touch(l.port)
			}
			if len(f.links) == 0 {
				// No pass reaches a flow without ports: it runs
				// unconstrained, completing "instantly" at a huge rate.
				f.rate = math.MaxFloat64 / 4
			}
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
func (f *flow) attach(p *Port) {
	f.links = append(f.links, link{port: p, slot: len(p.flows)})
	p.flows = append(p.flows, crossing{f: f, link: len(f.links) - 1})
	if !carries(p.capacity) {
		f.addDead(1)
	}
	f.sys.touch(p)
}

// addDead moves the live flow's count of non-carrying links by d and
// the System's stalled count with it when the flow stalls or unstalls.
func (f *flow) addDead(d int32) {
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
func (f *flow) firstLink(p *Port) int {
	for k, l := range f.links {
		if l.port == p {
			return k
		}
	}
	return -1
}

// Stats counts allocator work. Every count depends only on the sequence
// of flow and capacity changes, never on the host.
type Stats struct {
	// Passes is the number of max-min allocations over a non-empty flow
	// set: at most one per instant that changes flows, plus one per
	// change made outside an event or while every flow is stalled, one
	// per Flow.Rate call that finds an allocation pending, and one each
	// time the pending completion placeholder reaches the head of the
	// event queue before the instant ends (an event at the same instant
	// scheduled after the last deferred change is about to fire).
	Passes uint64
	// Rounds is the number of bottleneck ports frozen, summed over all
	// passes. A pass freezes ports only in the components it allocates.
	Rounds uint64
	// Flows is the number of flows allocated, summed over all passes: the
	// flows of the components that hold a port changed since the previous
	// pass.
	Flows uint64
	// Ports is the number of ports keyed into the bottleneck heap, summed
	// over all passes: in the components a pass allocates, every port two
	// or more crossings share and, per flow, the least of its solo ports.
	Ports uint64
}

// System ties ports and flows to a simulation engine.
type System struct {
	eng        *sim.Engine
	flows      []*flow
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
	// flush, which runs at the end of the current instant, or earlier
	// when the completion placeholder reaches the head of the queue.
	dirty bool

	// touched lists the ports changed since the last allocation pass,
	// each once (Port.touchEpoch): the next pass allocates the components
	// that hold them.
	touched []*Port

	// allocate() scratch, reused across calls: the pass epoch and the
	// bottleneck heap.
	allocEpoch uint64
	heap       bottleneckHeap

	// onCompletion scratch, reused across completion events: the flows
	// that finish, then their callbacks.
	finishedScratch []*flow
	doneScratch     []func()

	// flowFree recycles the storage of ended flows (release), links
	// backing arrays included; StartFlow takes from it first.
	flowFree []*flow

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

// NewPort creates a port with the given capacity in bytes/second. A
// negative or NaN capacity panics.
func (s *System) NewPort(name string, capacity float64) *Port {
	if capacity < 0 {
		panic(fmt.Sprintf("fairshare: negative capacity for port %s", name))
	}
	checkCapacity(capacity, name, "")
	return s.newPortInternal(name, capacity)
}

// checkCapacity panics on a NaN capacity c for the port named
// name+suffix: a NaN key would break the total order the bottleneck heap
// and the solo fold in allocate rely on. The name is joined only to
// panic, so the check allocates nothing on the StartFlow path.
func checkCapacity(c float64, name, suffix string) {
	if math.IsNaN(c) {
		panic(fmt.Sprintf("fairshare: NaN capacity for port %s%s", name, suffix))
	}
}

func (s *System) newPortInternal(name string, capacity float64) *Port {
	s.nextPort++
	return &Port{name: name, prefix: namePrefix(name), seq: s.nextPort, capacity: capacity, sys: s}
}

// newCapPort returns a private rate-cap port, reusing a recycled struct
// (and its emptied flow list) when one is available. The name reads
// flowName+"/cap" either way, and the creation number is fresh, so
// pooling does not perturb the bottleneck tie-break. A recycled port
// whose name already reads so (the common case: a node's merges share
// one flow name) keeps its string instead of building a new one.
func (s *System) newCapPort(flowName string, rate float64) *Port {
	if n := len(s.capPortFree); n > 0 {
		p := s.capPortFree[n-1]
		s.capPortFree[n-1] = nil
		s.capPortFree = s.capPortFree[:n-1]
		s.nextPort++
		if !isCapName(p.name, flowName) {
			p.name = flowName + "/cap"
			p.prefix = namePrefix(p.name)
		}
		p.seq = s.nextPort
		p.capacity = rate
		return p
	}
	return s.newPortInternal(flowName+"/cap", rate)
}

// isCapName reports whether name reads flowName+"/cap", without building
// that string.
func isCapName(name, flowName string) bool {
	return len(name) == len(flowName)+len("/cap") &&
		strings.HasPrefix(name, flowName) && strings.HasSuffix(name, "/cap")
}

// StartFlow begins transferring bytes across the given ports, calling
// done (if non-nil) when the last byte arrives. maxRate > 0 imposes a
// private rate cap; a NaN maxRate panics. A flow of zero (or negative)
// bytes, or one with neither ports nor a cap, completes at the current
// instant: its handle has already ended, and done runs in a fresh engine
// event.
func (s *System) StartFlow(name string, bytes int64, ports []*Port, maxRate float64, done func()) Flow {
	checkCapacity(maxRate, name, "/cap")
	s.advance()
	s.nextSeq++
	if bytes <= 0 || (len(ports) == 0 && maxRate <= 0) {
		// Empty, or unconstrained (e.g., node-local loopback):
		// instantaneous.
		if done != nil {
			s.eng.Post(0, done)
		}
		return Flow{}
	}
	f := s.newFlow(len(ports) + 1)
	f.name, f.seq, f.remaining, f.done = name, s.nextSeq, float64(bytes), done
	// The flow joins s.flows before it attaches, so attach can count it
	// as stalled.
	f.idx = int32(len(s.flows))
	s.flows = append(s.flows, f)
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
	return Flow{f: f, gen: f.gen}
}

// newFlow returns empty flow storage whose links can hold n entries
// without growing: recycled storage when there is some, else new.
func (s *System) newFlow(n int) *flow {
	var f *flow
	if k := len(s.flowFree); k > 0 {
		f = s.flowFree[k-1]
		s.flowFree[k-1] = nil
		s.flowFree = s.flowFree[:k-1]
	} else {
		f = &flow{sys: s, gen: 1}
	}
	if cap(f.links) < n {
		f.links = make([]link, 0, n)
	}
	return f
}

// release recycles the storage of a flow that has left the system.
// Bumping gen makes every handle to it stale. Every other field
// is reset: epoch goes back to 0, the tag no pass uses, because allocate
// skips a flow whose tag equals the pass's. Storage whose generation
// wraps is dropped instead of parked: generations start at 1, so its
// stale handles (1 to 2^32-1) can never match it again.
func (s *System) release(f *flow) {
	gen := f.gen + 1
	links := f.links[:cap(f.links)]
	clear(links)
	*f = flow{sys: s, gen: gen, links: links[:0]}
	if gen != 0 {
		s.flowFree = append(s.flowFree, f)
	}
}

// ActiveFlows returns the number of in-flight flows.
func (s *System) ActiveFlows() int { return len(s.flows) }

// remove takes the live flow f out of the system, out of s.flows and off
// its ports, and releases its storage: every handle to it goes stale.
func (s *System) remove(f *flow) {
	last := len(s.flows) - 1
	moved := s.flows[last]
	s.flows[f.idx] = moved
	moved.idx = f.idx
	s.flows[last] = nil
	s.flows = s.flows[:last]
	if f.dead > 0 {
		s.stalled--
	}
	// Index on every step: dropping one crossing can move another of
	// this flow's crossings (a port listed twice) and rewrite its slot.
	for k := range f.links {
		l := f.links[k]
		l.port.drop(l.slot)
		s.touch(l.port)
	}
	if f.capPort != nil {
		// The private cap port is reachable only through this flow;
		// recycle it (its flow list is empty again after the loop above).
		s.capPortFree = append(s.capPortFree, f.capPort)
	}
	s.release(f)
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
// queue length — and flush, run once at the end of the instant
// (sim.Engine.AfterInstant), does the one allocation and moves the
// timer to its real deadline with Retime, which keeps the sequence
// number. The timer is guarded (sim.Timer.Guard), so should the
// placeholder reach the head of the queue first, flush runs before it
// can pop. Every other change runs the allocation now, as the eager
// code did.
func (s *System) reschedule() {
	s.advance()
	if s.eng.InEvent() && len(s.flows) > s.stalled {
		s.arm(0)
		if !s.dirty {
			s.dirty = true
			s.eng.AfterInstant(s.flushFn)
		}
		return
	}
	s.dirty = false
	s.allocate()
	delay, ok := completionDelay(s.firstCompletion(), s.eng.Now())
	if !ok {
		if s.completion != nil {
			s.completion.Stop()
		}
		return
	}
	s.arm(delay)
}

// arm re-arms the single completion timer after delay. Reschedule is
// ordering-equivalent to Stop-then-Schedule but reuses the timer and
// the pre-bound onCompletionFn, which together were the top allocation
// sites under fetch-session churn. The timer is guarded once, when it
// is made: a placeholder never pops before flush moves it.
func (s *System) arm(delay time.Duration) {
	if s.completion == nil {
		s.completion = s.eng.Schedule(delay, s.onCompletionFn)
		s.completion.Guard()
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
	delay, ok := completionDelay(first, s.eng.Now())
	if !ok {
		s.completion.Stop()
		return
	}
	s.completion.Retime(delay)
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
	// reproducible. Each callback is read before remove releases its
	// flow.
	sortFlows(finished)
	dones := s.doneScratch[:0]
	for _, f := range finished {
		dones = append(dones, f.done)
		s.remove(f)
	}
	clear(finished)
	s.finishedScratch = finished[:0]
	s.reschedule()
	for _, done := range dones {
		if done != nil {
			done()
		}
	}
	// Drop the callbacks before parking the scratch so it does not pin
	// their closures for the run.
	clear(dones)
	s.doneScratch = dones[:0]
}

const completionEpsilon = 0.5 // half a byte

func sortFlows(fs []*flow) {
	// Insertion sort: the finished set is nearly always tiny.
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].seq < fs[j-1].seq; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// touch records that p changed since the last allocation pass, so the
// next pass allocates p's component.
func (s *System) touch(p *Port) {
	if p.touchEpoch != s.allocEpoch+1 {
		p.touchEpoch = s.allocEpoch + 1
		s.touched = append(s.touched, p)
	}
}

// gather adds p to the current pass with its full capacity. Every flow
// crossing p is in p's component, so all of them join the pass.
func (s *System) gather(p *Port) {
	p.allocEpoch = s.allocEpoch
	p.residual = p.capacity
	p.unfrozen = len(p.flows)
	p.id = s.heap.add(p)
}

// visit adds f to the current pass under the pass tag epoch. It gathers
// each of f's ports that another crossing shares, and of its solo ports
// (crossed by f alone, once) only the least in the heap's order: until
// f freezes a solo port's key is its capacity, so no other solo port of
// f can bind.
func (s *System) visit(f *flow, epoch uint32) {
	f.epoch = epoch
	f.rate = 0
	f.frozen = false
	var least *Port
	for _, l := range f.links {
		p := l.port
		if len(p.flows) == 1 {
			if least == nil || soloLess(p, least) {
				least = p
			}
		} else if p.allocEpoch != s.allocEpoch {
			s.gather(p)
		}
	}
	if least != nil {
		s.gather(least)
	}
}

// allocate computes max-min fair rates via progressive filling: repeatedly
// take the port with the smallest per-flow fair share, freeze its flows at
// that rate, subtract their consumption everywhere, and continue.
//
// It allocates only the connected components that hold a touched port,
// gathered by walking outward from those ports (port → its flows → their
// ports). Every other flow keeps its rate, and that rate is the one a
// whole-system pass would give it: a port's residual moves only when a
// flow of its own component freezes, and the key order below is total, so
// each component freezes the same bottlenecks in the same order, with the
// same float operations, whether it is allocated alone or beside others.
// An untouched component has not changed since the pass that last
// allocated it.
//
// The heap keys every port two or more crossings share and, per flow,
// only the least of its solo ports, those the flow alone crosses once
// (visit). A solo port's key stays capacity/1 until its flow freezes, so
// the others could surface only after that, with nothing left to freeze:
// leaving them out changes no round and no float operation. Their scratch
// fields are stale, and the freeze loop skips them.
//
// The keyed ports sit in an indexed min-heap keyed on (share, name, seq),
// where share is residual/float64(unfrozen), so a pass costs
// O(flow·port incidences + keyed ports · log keyed ports) over the
// components it allocates. The ports a frozen flow crosses are re-keyed
// lazily. In exact arithmetic a freeze at s <= r/u only raises
// (r-s)/(u-1); a raised key is re-sifted only once it reaches the top, so
// every stored key is at most the true one and the top is the true
// minimum whenever its key is current. Rounding at s == r/u and the
// residual clamp at 0 can lower a key instead; that one is re-sifted at
// once, and fix moves it either way. A port whose flows have all frozen
// is dropped when it surfaces, and the pass ends when no flow is left to
// freeze.
//
// Every step is independent of the order of s.flows, s.touched and
// port.flows: the key order is total (no capacity is NaN), and a port's
// residual takes the same share k times within a round whichever of its
// flows freezes first.
func (s *System) allocate() {
	s.allocEpoch++
	touched := s.touched
	s.touched = touched[:0]
	if len(s.flows) == 0 {
		return
	}
	s.stats.Passes++
	if uint32(s.allocEpoch) == 0 {
		// The flows' 32-bit pass tags wrapped: clear them and skip tag 0,
		// which a new flow carries.
		for _, f := range s.flows {
			f.epoch = 0
		}
		s.allocEpoch++
	}
	epoch := uint32(s.allocEpoch)
	h := &s.heap
	h.reset()
	remaining := 0
	// h.ports doubles as the walk's queue; next is its head.
	next := 0
	for _, t := range touched {
		switch {
		case len(t.flows) == 1:
			// A solo root: the walk starts at its flow, which keys it
			// only if it is the flow's least solo port.
			if f := t.flows[0].f; f.epoch != epoch {
				s.visit(f, epoch)
				remaining++
			}
		case len(t.flows) > 1 && t.allocEpoch != s.allocEpoch:
			s.gather(t)
		}
		for ; next < len(h.ports); next++ {
			for _, c := range h.ports[next].flows {
				if f := c.f; f.epoch != epoch {
					s.visit(f, epoch)
					remaining++
				}
			}
		}
	}
	s.stats.Flows += uint64(remaining)
	s.stats.Ports += uint64(len(h.ports))
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
				if p.allocEpoch != s.allocEpoch {
					// A solo port the pass left out: its scratch is
					// stale, and f was its only flow.
					continue
				}
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

// completionDelay converts the first completion, first seconds away,
// into the delay its timer is armed with, rounded up so the event never
// lands before the last byte. ok is false when first is +Inf or when the
// instant lies past the last one sim.Time can represent: such a
// completion arms no timer, like a stalled flow's. (A timer clamped to
// that last instant would fire there again and again with no time
// passing and no byte moving.)
func completionDelay(first float64, now time.Duration) (delay time.Duration, ok bool) {
	ns := math.Ceil(max(first, 0) * 1e9)
	if !(ns < math.MaxInt64) {
		return 0, false
	}
	delay = time.Duration(ns)
	return delay, delay <= math.MaxInt64-now
}

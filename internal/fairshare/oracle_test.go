package fairshare

import (
	"fmt"
	"math"

	"alm/internal/sim"
)

// oracleSystem is the map-based allocator the bottleneck heap replaced,
// kept as the differential oracle: every pass rescans every live port in
// every progressive-filling round. It differs from the original only in
// the tie-break on a port's creation number, which makes its bottleneck
// choice deterministic, and in counting the same Stats as System.
//
// It allocates eagerly on every change, as System did before it learned
// to defer in-event allocations, so its timer accounting is the
// reference the deferral must reproduce. coalesced models the work
// System reports instead (see reschedule).
//
// Its rates always come from a whole-system pass, but its Stats count
// the work of the components System allocates: each pass labels the
// connected components and counts bottleneck rounds and flows per
// component, and a pass's work is the sum over the components that hold
// a port changed since the pass it is counted after (work).
type oracleSystem struct {
	eng        *sim.Engine
	flows      map[*oracleFlow]struct{}
	lastUpdate sim.Time
	completion *sim.Timer
	nextSeq    uint64
	nextPort   uint64
	// stats is the work of the eager passes, each counted over the ports
	// in touched: those changed since the previous eager pass.
	stats   Stats
	touched map[*oraclePort]struct{}

	// coalesced is the work System should report for the same changes:
	// every pass made outside an event or while every flow is stalled,
	// plus each deferred pass System runs. A deferred pass is pending
	// from the change that defers it until settle counts it: at the end
	// of the instant, before the completion timer fires at the instant
	// (it is guarded, as System's is), before an event the rig posted
	// after the change fires, or at a Rate read; deferred holds its
	// work while pending is set. Both count over the ports in untallied:
	// those changed since the last pass coalesced counted.
	coalesced Stats
	deferred  Stats
	pending   bool
	untallied map[*oraclePort]struct{}
	// stamp numbers, in scheduling order, the changes that defer and
	// the rig's events (post); deferStamp is the latest deferring
	// change's. An event stamped after it fires after System's
	// placeholder, which the change armed, and System runs the pass
	// before the placeholder can pop.
	stamp, deferStamp uint64

	// The latest pass's components: oraclePort.comp indexes compRounds,
	// compFlows and compPorts while the port's allocEpoch is current.
	compRounds []uint64
	compFlows  []uint64
	compPorts  []uint64

	onCompletionFn func()

	allocEpoch   uint64
	portsScratch []*oraclePort

	finishedScratch []*oracleFlow
	capPortFree     []*oraclePort
}

type oraclePort struct {
	name     string
	seq      uint64
	capacity float64
	sys      *oracleSystem
	flows    map[*oracleFlow]struct{}

	allocEpoch uint64
	residual   float64
	unfrozen   int
	comp       int
}

func (p *oraclePort) SetCapacity(c float64) {
	if c < 0 {
		c = 0
	}
	if p.capacity == c {
		return
	}
	p.capacity = c
	p.sys.touch(p)
	p.sys.reschedule()
}

type oracleFlow struct {
	name      string
	seq       uint64
	sys       *oracleSystem
	ports     []*oraclePort
	capPort   *oraclePort
	remaining float64
	rate      float64
	done      func()
	finished  bool
	canceled  bool
	frozen    bool
}

// Rate returns the flow's rate. On a running flow it first counts a
// pending deferred pass, as System's Flow.Rate runs it.
func (f *oracleFlow) Rate() float64 {
	if f.sys.pending && !f.finished && !f.canceled {
		f.sys.settle()
	}
	return f.rate
}

func (f *oracleFlow) Remaining() float64 {
	f.sys.advance()
	return f.remaining
}

func (f *oracleFlow) Cancel() {
	if f.finished || f.canceled {
		return
	}
	f.sys.advance()
	f.canceled = true
	f.sys.remove(f)
	f.sys.reschedule()
}

func (f *oracleFlow) SetPriorityCap(rate float64) {
	if f.finished || f.canceled {
		return
	}
	f.sys.advance()
	if rate <= 0 {
		if f.capPort != nil {
			delete(f.capPort.flows, f)
			f.ports = oracleRemovePort(f.ports, f.capPort)
			f.sys.capPortFree = append(f.sys.capPortFree, f.capPort)
			f.capPort = nil
			for _, p := range f.ports {
				f.sys.touch(p)
			}
		}
	} else if f.capPort != nil {
		f.capPort.capacity = rate
		f.sys.touch(f.capPort)
	} else {
		p := f.sys.newCapPort(f.name, rate)
		f.capPort = p
		f.ports = append(f.ports, p)
		p.flows[f] = struct{}{}
		f.sys.touch(p)
	}
	f.sys.reschedule()
}

func oracleRemovePort(ports []*oraclePort, p *oraclePort) []*oraclePort {
	out := ports[:0]
	for _, q := range ports {
		if q != p {
			out = append(out, q)
		}
	}
	return out
}

func newOracleSystem(e *sim.Engine) *oracleSystem {
	s := &oracleSystem{eng: e, flows: make(map[*oracleFlow]struct{}),
		touched: make(map[*oraclePort]struct{}), untallied: make(map[*oraclePort]struct{})}
	s.onCompletionFn = s.onCompletion
	return s
}

func (s *oracleSystem) NewPort(name string, capacity float64) *oraclePort {
	if capacity < 0 {
		panic(fmt.Sprintf("fairshare: negative capacity for port %s", name))
	}
	return s.newPortInternal(name, capacity)
}

func (s *oracleSystem) newPortInternal(name string, capacity float64) *oraclePort {
	s.nextPort++
	return &oraclePort{name: name, seq: s.nextPort, capacity: capacity, sys: s, flows: make(map[*oracleFlow]struct{})}
}

func (s *oracleSystem) newCapPort(flowName string, rate float64) *oraclePort {
	if n := len(s.capPortFree); n > 0 {
		p := s.capPortFree[n-1]
		s.capPortFree[n-1] = nil
		s.capPortFree = s.capPortFree[:n-1]
		s.nextPort++
		p.name = flowName + "/cap"
		p.seq = s.nextPort
		p.capacity = rate
		return p
	}
	return s.newPortInternal(flowName+"/cap", rate)
}

func (s *oracleSystem) StartFlow(name string, bytes int64, ports []*oraclePort, maxRate float64, done func()) *oracleFlow {
	s.advance()
	s.nextSeq++
	f := &oracleFlow{name: name, seq: s.nextSeq, sys: s, remaining: float64(bytes), done: done}
	if len(ports) == 0 && maxRate <= 0 {
		f.remaining = 0
	}
	if f.remaining <= 0 {
		f.finished = true
		if done != nil {
			s.eng.Schedule(0, done)
		}
		return f
	}
	f.ports = make([]*oraclePort, 0, len(ports)+1)
	for _, p := range ports {
		f.ports = append(f.ports, p)
		p.flows[f] = struct{}{}
		s.touch(p)
	}
	if maxRate > 0 {
		cp := s.newCapPort(name, maxRate)
		f.capPort = cp
		f.ports = append(f.ports, cp)
		cp.flows[f] = struct{}{}
		s.touch(cp)
	}
	s.flows[f] = struct{}{}
	s.reschedule()
	return f
}

func (s *oracleSystem) remove(f *oracleFlow) {
	delete(s.flows, f)
	f.rate = 0
	for _, p := range f.ports {
		delete(p.flows, f)
		s.touch(p)
	}
	if f.capPort != nil {
		s.capPortFree = append(s.capPortFree, f.capPort)
		f.capPort = nil
	}
}

func (s *oracleSystem) advance() {
	now := s.eng.Now()
	dt := now - s.lastUpdate
	s.lastUpdate = now
	if dt <= 0 {
		return
	}
	secs := dt.Seconds()
	for f := range s.flows {
		f.remaining -= f.rate * secs
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// touch records a change to p for both work models.
func (s *oracleSystem) touch(p *oraclePort) {
	s.touched[p] = struct{}{}
	s.untallied[p] = struct{}{}
}

func (s *oracleSystem) reschedule() {
	s.advance()
	s.allocate()
	s.stats.add(s.work(s.touched))
	clear(s.touched)
	pass := s.work(s.untallied)
	deferred := s.eng.InEvent() && len(s.flows) > s.stalledFlows()
	if deferred {
		s.deferred = pass
		s.stamp++
		s.deferStamp = s.stamp
		if !s.pending {
			s.pending = true
			s.eng.AfterInstant(s.settle)
		}
	} else {
		s.pending = false
		s.coalesced.add(pass)
		clear(s.untallied)
	}
	first := math.Inf(1)
	for f := range s.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < first {
			first = t
		}
	}
	delay, ok := completionDelay(first, s.eng.Now())
	if ok || deferred {
		// A deferring System arms its placeholder before its pass can
		// find the completion out of sim.Time's range, then stops it.
		if s.completion == nil {
			s.completion = s.eng.Schedule(delay, s.onCompletionFn)
			s.completion.Guard()
		} else {
			s.completion.Reschedule(delay, s.onCompletionFn)
		}
	}
	if !ok && s.completion != nil {
		s.completion.Stop()
	}
}

// stalledFlows counts, from scratch, the live flows that cross a port
// that does not carry.
func (s *oracleSystem) stalledFlows() int {
	n := 0
	for f := range s.flows {
		for _, p := range f.ports {
			if !carries(p.capacity) {
				n++
				break
			}
		}
	}
	return n
}

// post queues fn at the current instant for the rig, stamped: if a
// deferred pass is still pending when it fires and was deferred before
// fn was posted, the pass is counted first.
func (s *oracleSystem) post(fn func()) {
	s.stamp++
	st := s.stamp
	s.eng.Schedule(0, func() {
		if st > s.deferStamp {
			s.settle()
		}
		fn()
	})
}

// settle counts the pending deferred pass, if there is one.
func (s *oracleSystem) settle() {
	if s.pending {
		s.pending = false
		s.coalesced.add(s.deferred)
		clear(s.untallied)
	}
}

// work is the latest pass's work restricted to the components that hold
// a port in changed: what System's pass does after those changes. A pass
// over no flows is no pass.
func (s *oracleSystem) work(changed map[*oraclePort]struct{}) Stats {
	if len(s.flows) == 0 {
		return Stats{}
	}
	st := Stats{Passes: 1}
	counted := make(map[int]bool)
	for p := range changed {
		if p.allocEpoch != s.allocEpoch || len(p.flows) == 0 || counted[p.comp] {
			continue
		}
		counted[p.comp] = true
		st.Rounds += s.compRounds[p.comp]
		st.Flows += s.compFlows[p.comp]
		st.Ports += s.compPorts[p.comp]
	}
	return st
}

func (st *Stats) add(o Stats) {
	st.Passes += o.Passes
	st.Rounds += o.Rounds
	st.Flows += o.Flows
	st.Ports += o.Ports
}

func (s *oracleSystem) onCompletion() {
	s.advance()
	finished := s.finishedScratch[:0]
	for f := range s.flows {
		if f.remaining <= completionEpsilon {
			finished = append(finished, f)
		}
	}
	for i := 1; i < len(finished); i++ {
		for j := i; j > 0 && finished[j].seq < finished[j-1].seq; j-- {
			finished[j], finished[j-1] = finished[j-1], finished[j]
		}
	}
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
	for i := range finished {
		finished[i] = nil
	}
	s.finishedScratch = finished[:0]
}

// allocate is the original scan: each round finds the bottleneck among
// all ports gathered for the pass, by (share, name, seq). It also labels
// the pass's connected components and counts each one's rounds, flows
// and the ports System keys: each port with two or more crossings, and
// one per flow that has a port it alone crosses once.
func (s *oracleSystem) allocate() {
	if len(s.flows) == 0 {
		return
	}
	s.allocEpoch++
	ports := s.portsScratch[:0]
	remaining := 0
	for f := range s.flows {
		f.rate = 0
		for _, p := range f.ports {
			if p.allocEpoch != s.allocEpoch {
				p.allocEpoch = s.allocEpoch
				p.residual = p.capacity
				p.unfrozen = 0
				ports = append(ports, p)
			}
			p.unfrozen++
		}
		if len(f.ports) == 0 {
			f.rate = math.MaxFloat64 / 4
			f.frozen = true
		} else {
			f.frozen = false
			remaining++
		}
	}
	s.portsScratch = ports
	s.labelComponents(ports)
	for _, p := range ports {
		if p.unfrozen > 1 {
			s.compPorts[p.comp]++
		}
	}
	for f := range s.flows {
		if len(f.ports) > 0 {
			s.compFlows[f.ports[0].comp]++
			for _, p := range f.ports {
				if p.unfrozen == 1 {
					s.compPorts[p.comp]++
					break
				}
			}
		}
	}
	for remaining > 0 {
		var bottleneck *oraclePort
		share := math.Inf(1)
		for _, p := range ports {
			if p.unfrozen == 0 {
				continue
			}
			ps := p.residual / float64(p.unfrozen)
			if ps < share || (ps == share && bottleneck != nil &&
				(p.name < bottleneck.name || (p.name == bottleneck.name && p.seq < bottleneck.seq))) {
				share = ps
				bottleneck = p
			}
		}
		if bottleneck == nil {
			break
		}
		s.compRounds[bottleneck.comp]++
		if share < 0 {
			share = 0
		}
		for f := range bottleneck.flows {
			if f.frozen {
				continue
			}
			f.rate = share
			f.frozen = true
			remaining--
			for _, p := range f.ports {
				p.residual -= share
				if p.residual < 0 {
					p.residual = 0
				}
				p.unfrozen--
			}
		}
	}
}

// labelComponents numbers the connected components of the pass's ports
// (ports joined by a flow crossing both) and zeroes their counts.
func (s *oracleSystem) labelComponents(ports []*oraclePort) {
	for _, p := range ports {
		p.comp = -1
	}
	n := 0
	var stack []*oraclePort
	for _, root := range ports {
		if root.comp >= 0 {
			continue
		}
		root.comp = n
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for f := range p.flows {
				for _, q := range f.ports {
					if q.comp < 0 {
						q.comp = n
						stack = append(stack, q)
					}
				}
			}
		}
		n++
	}
	s.compRounds = append(s.compRounds[:0], make([]uint64, n)...)
	s.compFlows = append(s.compFlows[:0], make([]uint64, n)...)
	s.compPorts = append(s.compPorts[:0], make([]uint64, n)...)
}

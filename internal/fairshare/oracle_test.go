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
type oracleSystem struct {
	eng        *sim.Engine
	flows      map[*oracleFlow]struct{}
	lastUpdate sim.Time
	completion *sim.Timer
	nextSeq    uint64
	nextPort   uint64
	stats      Stats

	// coalesced is the work System should report for the same changes:
	// every pass made outside an event or while every flow is stalled,
	// plus, for each event that defers, the last deferred pass (System
	// runs it once, when the handler returns). deferred holds that pass
	// while pending is set.
	coalesced Stats
	deferred  Stats
	pending   bool

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
}

func (p *oraclePort) SetCapacity(c float64) {
	if c < 0 {
		c = 0
	}
	if p.capacity == c {
		return
	}
	p.capacity = c
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

func (f *oracleFlow) Rate() float64 { return f.rate }

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
		}
	} else if f.capPort != nil {
		f.capPort.capacity = rate
	} else {
		p := f.sys.newCapPort(f.name, rate)
		f.capPort = p
		f.ports = append(f.ports, p)
		p.flows[f] = struct{}{}
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
	s := &oracleSystem{eng: e, flows: make(map[*oracleFlow]struct{})}
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
	}
	if maxRate > 0 {
		cp := s.newCapPort(name, maxRate)
		f.capPort = cp
		f.ports = append(f.ports, cp)
		cp.flows[f] = struct{}{}
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

func (s *oracleSystem) reschedule() {
	s.advance()
	before := s.stats
	s.allocate()
	pass := Stats{Passes: s.stats.Passes - before.Passes, Rounds: s.stats.Rounds - before.Rounds}
	if s.eng.InEvent() && len(s.flows) > s.stalledFlows() {
		s.deferred = pass
		if !s.pending {
			s.pending = true
			s.eng.AfterEvent(s.settle)
		}
	} else {
		s.pending = false
		s.coalesced.add(pass)
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
	if math.IsInf(first, 1) {
		if s.completion != nil {
			s.completion.Stop()
		}
		return
	}
	delay := secondsToDuration(first)
	if s.completion == nil {
		s.completion = s.eng.Schedule(delay, s.onCompletionFn)
	} else {
		s.completion.Reschedule(delay, s.onCompletionFn)
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

// settle counts the pass an event deferred, once its handler returns.
func (s *oracleSystem) settle() {
	if s.pending {
		s.pending = false
		s.coalesced.add(s.deferred)
	}
}

func (st *Stats) add(o Stats) {
	st.Passes += o.Passes
	st.Rounds += o.Rounds
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
// all ports gathered for the pass, by (share, name, seq).
func (s *oracleSystem) allocate() {
	if len(s.flows) == 0 {
		return
	}
	s.stats.Passes++
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
		s.stats.Rounds++
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

package fairshare

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"alm/internal/sim"
)

// The differential rig drives one script through System and through the
// map-based oracleSystem (oracle_test.go), each on its own engine, and
// compares them bit for bit after every step.

type opKind uint8

const (
	opNewPort opKind = iota
	opStartFlow
	opSetCapacity
	opSetPriorityCap
	opCancel
	opRun
	numOpKinds
	// opBatch applies its steps inside one engine event. The fuzz
	// decoder and randomScript never emit it.
	opBatch = numOpKinds
)

// op is one script step. Port and flow indexes are taken modulo the
// number created so far when the step runs.
type op struct {
	kind  opKind
	name  string
	port  int
	ports []int
	flow  int
	value float64 // capacity, rate cap (<= 0 removes it) or unused
	bytes int64
	dt    sim.Time
	batch []op // opBatch's steps
}

func (o op) String() string {
	switch o.kind {
	case opNewPort:
		return fmt.Sprintf("NewPort(%q, %v)", o.name, o.value)
	case opStartFlow:
		return fmt.Sprintf("StartFlow(%q, %d, ports %v, cap %v)", o.name, o.bytes, o.ports, o.value)
	case opSetCapacity:
		return fmt.Sprintf("port %d SetCapacity(%v)", o.port, o.value)
	case opSetPriorityCap:
		return fmt.Sprintf("flow %d SetPriorityCap(%v)", o.flow, o.value)
	case opCancel:
		return fmt.Sprintf("flow %d Cancel()", o.flow)
	case opBatch:
		return fmt.Sprintf("in one event %v", o.batch)
	default:
		if o.dt < 0 {
			return "RunAll()"
		}
		return fmt.Sprintf("Run(+%v)", o.dt)
	}
}

// Value tables the script generators draw from. They repeat values and
// names on purpose: equal shares and equal port names are where the
// bottleneck tie-break decides. The slowest flow (1e7 bytes sharing a
// 100 B/s port among at most 200 flows) ends well inside the completion
// timer's range.
var (
	portNames  = []string{"p", "p", "q", "node-01/in", "node-01/out", "node-02/in", "rack-0/uplink"}
	flowNames  = []string{"f", "f", "dmerge:3", "dmerge:3", "xfer:1->2"}
	capacities = []float64{0, 100, 100, 250, 300, 1000, 1000.0 / 3, 1.25e9, 1.25e9, 7.5e8, 12345.678}
	flowBytes  = []int64{0, 1, 100, 1000, 4096, 123457, 1e6, 1e7}
	rateCaps   = []float64{0, 0, 10, 100, 100, 333.3, 1e6}
	runSteps   = []sim.Time{0, 1, sim.Time(time.Microsecond), sim.Time(time.Millisecond), sim.Time(100 * time.Millisecond), sim.Time(time.Second), sim.Time(10 * time.Second), sim.Time(1000 * time.Second)}
)

// byteSource hands out script choices from fuzz input, then zeros.
type byteSource struct{ data []byte }

func (b *byteSource) next() int {
	if len(b.data) == 0 {
		return 0
	}
	v := b.data[0]
	b.data = b.data[1:]
	return int(v)
}

// decodeScript turns fuzz bytes into at most 200 script steps.
func decodeScript(data []byte) []op {
	src := &byteSource{data: data}
	var ops []op
	for len(src.data) > 0 && len(ops) < 200 {
		ops = append(ops, decodeOp(src.next, opKind(src.next()%int(numOpKinds))))
	}
	return ops
}

// decodeOp builds one step of the given kind from a stream of choices.
func decodeOp(next func() int, kind opKind) op {
	o := op{kind: kind}
	switch kind {
	case opNewPort:
		o.name = portNames[next()%len(portNames)]
		o.value = capacities[next()%len(capacities)]
	case opStartFlow:
		o.name = flowNames[next()%len(flowNames)]
		o.bytes = flowBytes[next()%len(flowBytes)]
		n := 1 + next()%4
		for i := 0; i < n; i++ {
			o.ports = append(o.ports, next())
		}
		o.value = rateCaps[next()%len(rateCaps)]
	case opSetCapacity:
		o.port = next()
		o.value = capacities[next()%len(capacities)]
	case opSetPriorityCap:
		o.flow = next()
		o.value = rateCaps[next()%len(rateCaps)]
	case opCancel:
		o.flow = next()
	case opRun:
		o.dt = runSteps[next()%len(runSteps)]
	}
	return o
}

// randomScript draws a script of n steps from rng, weighted toward flow
// starts and runs.
func randomScript(rng *rand.Rand, n int) []op {
	weights := []opKind{opNewPort, opNewPort, opStartFlow, opStartFlow, opStartFlow, opStartFlow,
		opSetCapacity, opSetPriorityCap, opCancel, opRun, opRun, opRun}
	next := func() int { return rng.Intn(256) }
	ops := make([]op, 0, n)
	for len(ops) < n {
		ops = append(ops, decodeOp(next, weights[rng.Intn(len(weights))]))
	}
	return ops
}

type completion struct {
	flow int
	at   sim.Time
}

type diffRig struct {
	t      testing.TB
	ne, oe *sim.Engine
	ns     *System
	os     *oracleSystem
	nPorts []*Port
	oPorts []*oraclePort
	nFlows []*Flow
	oFlows []*oracleFlow
	nDone  []completion
	oDone  []completion
	// batched is set once a step has run inside an event. Until then
	// every event changes flows at most once, so System must report
	// exactly the oracle's eager work.
	batched bool
}

func newDiffRig(t testing.TB) *diffRig {
	r := &diffRig{t: t, ne: sim.NewEngine(1), oe: sim.NewEngine(1)}
	// A script whose completions never make progress must fail, not hang.
	r.ne.SetMaxEvents(1_000_000)
	r.oe.SetMaxEvents(1_000_000)
	r.ns = NewSystem(r.ne)
	r.os = newOracleSystem(r.oe)
	return r
}

func (r *diffRig) apply(o op) {
	switch o.kind {
	case opRun:
		r.ne.Run(r.ne.Now() + o.dt)
		r.oe.Run(r.oe.Now() + o.dt)
	case opBatch:
		// One event on each engine applies every step to its own
		// system; running to the current instant fires it.
		r.batched = true
		r.ne.Schedule(0, func() {
			for _, b := range o.batch {
				r.applySystem(b)
			}
		})
		r.oe.Schedule(0, func() {
			for _, b := range o.batch {
				r.applyOracle(b)
			}
		})
		r.ne.Run(r.ne.Now())
		r.oe.Run(r.oe.Now())
	default:
		r.applySystem(o)
		r.applyOracle(o)
	}
}

// applySystem applies a step other than a run or a batch to System.
func (r *diffRig) applySystem(o op) {
	switch o.kind {
	case opNewPort:
		r.nPorts = append(r.nPorts, r.ns.NewPort(o.name, o.value))
	case opStartFlow:
		var sel []*Port
		if len(r.nPorts) > 0 {
			for _, i := range o.ports {
				sel = append(sel, r.nPorts[i%len(r.nPorts)])
			}
		}
		id := len(r.nFlows)
		r.nFlows = append(r.nFlows, r.ns.StartFlow(o.name, o.bytes, sel, o.value, func() {
			r.nDone = append(r.nDone, completion{id, r.ne.Now()})
		}))
	case opSetCapacity:
		if len(r.nPorts) > 0 {
			r.nPorts[o.port%len(r.nPorts)].SetCapacity(o.value)
		}
	case opSetPriorityCap:
		if len(r.nFlows) > 0 {
			r.nFlows[o.flow%len(r.nFlows)].SetPriorityCap(o.value)
		}
	case opCancel:
		if len(r.nFlows) > 0 {
			r.nFlows[o.flow%len(r.nFlows)].Cancel()
		}
	}
}

// applyOracle applies a step other than a run or a batch to the oracle.
func (r *diffRig) applyOracle(o op) {
	switch o.kind {
	case opNewPort:
		r.oPorts = append(r.oPorts, r.os.NewPort(o.name, o.value))
	case opStartFlow:
		var sel []*oraclePort
		if len(r.oPorts) > 0 {
			for _, i := range o.ports {
				sel = append(sel, r.oPorts[i%len(r.oPorts)])
			}
		}
		id := len(r.oFlows)
		r.oFlows = append(r.oFlows, r.os.StartFlow(o.name, o.bytes, sel, o.value, func() {
			r.oDone = append(r.oDone, completion{id, r.oe.Now()})
		}))
	case opSetCapacity:
		if len(r.oPorts) > 0 {
			r.oPorts[o.port%len(r.oPorts)].SetCapacity(o.value)
		}
	case opSetPriorityCap:
		if len(r.oFlows) > 0 {
			r.oFlows[o.flow%len(r.oFlows)].SetPriorityCap(o.value)
		}
	case opCancel:
		if len(r.oFlows) > 0 {
			r.oFlows[o.flow%len(r.oFlows)].Cancel()
		}
	}
}

// compare fails the test at the first divergence between the two systems.
func (r *diffRig) compare(step int, o op) {
	t := r.t
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d %v: %s", step, o, fmt.Sprintf(format, args...))
	}
	if r.ne.Now() != r.oe.Now() {
		fail("clock %v, oracle %v", r.ne.Now(), r.oe.Now())
	}
	if got, want := r.ns.Stats(), r.os.coalesced; got != want {
		fail("stats %+v, oracle's coalesced model %+v", got, want)
	}
	if !r.batched && r.os.coalesced != r.os.stats {
		fail("unbatched script: coalesced stats %+v, oracle %+v", r.os.coalesced, r.os.stats)
	}
	stalled := 0
	for _, f := range r.ns.flows {
		dead := int32(0)
		for _, l := range f.links {
			if !carries(l.port.capacity) {
				dead++
			}
		}
		if dead != f.dead {
			fail("flow %q counts %d non-carrying links, recounted %d", f.name, f.dead, dead)
		}
		if dead > 0 {
			stalled++
		}
	}
	if stalled != r.ns.stalled {
		fail("stalled count %d, recounted %d", r.ns.stalled, stalled)
	}
	if r.ns.dirty {
		fail("allocation still pending outside an event")
	}
	if r.ne.Processed() != r.oe.Processed() || r.ne.StoppedEvents() != r.oe.StoppedEvents() ||
		r.ne.MaxQueueLen() != r.oe.MaxQueueLen() || r.ne.QueueLen() != r.oe.QueueLen() {
		fail("engine processed/stopped/max queue/queue %d/%d/%d/%d, oracle's %d/%d/%d/%d",
			r.ne.Processed(), r.ne.StoppedEvents(), r.ne.MaxQueueLen(), r.ne.QueueLen(),
			r.oe.Processed(), r.oe.StoppedEvents(), r.oe.MaxQueueLen(), r.oe.QueueLen())
	}
	if got, want := r.ns.ActiveFlows(), len(r.os.flows); got != want {
		fail("%d active flows, oracle %d", got, want)
	}
	for i, f := range r.nFlows {
		g := r.oFlows[i]
		if math.Float64bits(f.Rate()) != math.Float64bits(g.Rate()) {
			fail("flow %d rate %v, oracle %v", i, f.Rate(), g.Rate())
		}
		if f.Done() != g.finished || f.Canceled() != g.canceled {
			fail("flow %d done/canceled %v/%v, oracle %v/%v", i, f.Done(), f.Canceled(), g.finished, g.canceled)
		}
		if !f.Done() && !f.Canceled() {
			if math.Float64bits(f.Remaining()) != math.Float64bits(g.Remaining()) {
				fail("flow %d remaining %v, oracle %v", i, f.Remaining(), g.Remaining())
			}
		}
	}
	for i, p := range r.nPorts {
		if got, want := p.ActiveFlows(), len(r.oPorts[i].flows); got != want {
			fail("port %d has %d flows, oracle %d", i, got, want)
		}
	}
	if len(r.nDone) != len(r.oDone) {
		fail("%d completions, oracle %d", len(r.nDone), len(r.oDone))
	}
	for i := range r.nDone {
		if r.nDone[i] != r.oDone[i] {
			fail("completion %d is %+v, oracle %+v", i, r.nDone[i], r.oDone[i])
		}
	}
}

// runDifferential plays the script on both systems, comparing after every
// step and once more after both drain.
func runDifferential(t testing.TB, ops []op, check func(r *diffRig, step int, o op)) *diffRig {
	r := newDiffRig(t)
	for i, o := range ops {
		r.apply(o)
		r.compare(i, o)
		if check != nil {
			check(r, i, o)
		}
	}
	drain := op{kind: opRun, dt: -1}
	r.ne.RunAll()
	r.oe.RunAll()
	r.compare(len(ops), drain)
	if check != nil {
		check(r, len(ops), drain)
	}
	return r
}

func TestAllocateMatchesOracle(t *testing.T) {
	passes := uint64(0)
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := runDifferential(t, randomScript(rng, 40+rng.Intn(120)), nil)
		passes += r.ns.Stats().Passes
	}
	if passes == 0 {
		t.Fatal("no allocation pass ran")
	}
}

// equalShareScript starts one flow on each of n identical NIC-like ports,
// all with the same name, then adds capped flows whose cap ports share a
// name and a capacity: every round ties on share, most on name too.
func equalShareScript(n int) []op {
	var ops []op
	for i := 0; i < n; i++ {
		ops = append(ops, op{kind: opNewPort, name: "nic", value: 1.25e9})
	}
	for i := 0; i < n; i++ {
		ops = append(ops, op{kind: opStartFlow, name: "xfer", bytes: int64(1e6 * (1 + i%3)), ports: []int{i}})
	}
	disk := n
	ops = append(ops, op{kind: opNewPort, name: "node-03/disk-w", value: 1000})
	for i := 0; i < 4; i++ {
		ops = append(ops, op{kind: opStartFlow, name: "dmerge:3", bytes: 5000, ports: []int{disk}, value: 100})
	}
	ops = append(ops,
		op{kind: opRun, dt: sim.Time(time.Millisecond)},
		op{kind: opStartFlow, name: "xfer", bytes: 4e6, ports: []int{0, 1, disk}},
		op{kind: opSetPriorityCap, flow: n, value: 0},
		op{kind: opSetPriorityCap, flow: n + 1, value: 250},
		op{kind: opRun, dt: sim.Time(time.Second)},
		op{kind: opSetCapacity, port: 2, value: 0},
		op{kind: opRun, dt: sim.Time(time.Second)},
		op{kind: opSetCapacity, port: 2, value: 1.25e9},
	)
	return ops
}

func TestAllocateMatchesOracleOnTies(t *testing.T) {
	for _, n := range []int{2, 7, 64} {
		runDifferential(t, equalShareScript(n), nil)
	}
}

// TestAllocateLoweredShare pins the case where a freeze lowers a share.
// Ports a, b and c have capacity 100 and three flows each, so all three
// tie at 100/3 = 33.333333333333336 and a goes first by name. Freezing
// a's flow that also crosses c leaves c at (100-s)/2 = 33.33333333333333,
// below the popped share: c must now beat b, whose share is unchanged,
// although b's name sorts first.
func TestAllocateLoweredShare(t *testing.T) {
	ops := []op{
		{kind: opNewPort, name: "a", value: 100},
		{kind: opNewPort, name: "b", value: 100},
		{kind: opNewPort, name: "c", value: 100},
		{kind: opStartFlow, name: "ac", bytes: 1e6, ports: []int{0, 2}},
		{kind: opStartFlow, name: "a", bytes: 1e6, ports: []int{0}},
		{kind: opStartFlow, name: "a", bytes: 1e6, ports: []int{0}},
		{kind: opStartFlow, name: "bc", bytes: 1e6, ports: []int{1, 2}},
		{kind: opStartFlow, name: "c", bytes: 1e6, ports: []int{2}},
		{kind: opStartFlow, name: "b", bytes: 1e6, ports: []int{1}},
		{kind: opStartFlow, name: "b", bytes: 1e6, ports: []int{1}},
	}
	const lowered = 33.33333333333333
	if s := 100.0 / 3; (100-s)/2 != lowered || lowered >= s {
		t.Fatalf("float setup: share %v, lowered %v", s, (100-s)/2)
	}
	runDifferential(t, ops, func(r *diffRig, step int, _ op) {
		if step != len(ops)-1 {
			return
		}
		if got := r.nFlows[3].Rate(); got != lowered {
			t.Fatalf("flow bc rate %v, want the lowered share %v from port c", got, lowered)
		}
	})
}

// TestSameNamedCapPortsDeterministic: two reducers merging on one node
// start identically named flows with the same merge-rate cap, so their
// cap ports tie on share and name. The creation number decides, and 50
// fresh runs agree with each other and with the oracle.
func TestSameNamedCapPortsDeterministic(t *testing.T) {
	ops := []op{
		{kind: opNewPort, name: "node-03/disk-w", value: 1000},
		{kind: opNewPort, name: "node-03/disk-r", value: 1000},
		{kind: opStartFlow, name: "dmerge:3", bytes: 3000, ports: []int{0}},
		{kind: opStartFlow, name: "dmerge:3", bytes: 2000, ports: []int{0, 1}},
		{kind: opSetPriorityCap, flow: 0, value: 100},
		{kind: opSetPriorityCap, flow: 1, value: 100},
		{kind: opStartFlow, name: "dread:3", bytes: 7000, ports: []int{1}},
		{kind: opRun, dt: sim.Time(5 * time.Second)},
		{kind: opSetPriorityCap, flow: 0, value: 0},
		{kind: opSetPriorityCap, flow: 0, value: 100},
	}
	type outcome struct {
		rates [3]uint64
		done  []completion
		stats Stats
	}
	var first *outcome
	for run := 0; run < 50; run++ {
		var rates [3]uint64
		r := runDifferential(t, ops, func(r *diffRig, step int, _ op) {
			if step == 6 {
				for i, f := range r.nFlows {
					rates[i] = math.Float64bits(f.Rate())
				}
			}
		})
		got := &outcome{rates: rates, done: r.nDone, stats: r.ns.Stats()}
		if first == nil {
			first = got
			continue
		}
		if got.rates != first.rates || got.stats != first.stats || !slices.Equal(got.done, first.done) {
			t.Fatalf("run %d: %+v, run 0: %+v", run, got, first)
		}
	}
	if math.Float64frombits(first.rates[0]) != 100 || math.Float64frombits(first.rates[1]) != 100 {
		t.Fatalf("capped merge rates %v, %v, want 100 each",
			math.Float64frombits(first.rates[0]), math.Float64frombits(first.rates[1]))
	}
}

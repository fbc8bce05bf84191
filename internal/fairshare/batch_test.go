package fairshare

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"alm/internal/sim"
)

// The batched differential runs several changes inside one engine event.
// System defers their allocation to one pass after the handler returns;
// the oracle still allocates on every change. The rig (compare) checks
// rates, remaining bytes and completions bit for bit, both engines'
// processed, stopped and queue counts, the stalled count against a
// recount, and System's Stats against the oracle's coalesced model.

// randomBatchedScript is randomScript with some steps replaced by
// batches of two to six non-run steps.
func randomBatchedScript(rng *rand.Rand, n int) []op {
	kinds := []opKind{opNewPort, opStartFlow, opStartFlow, opStartFlow, opSetCapacity, opSetPriorityCap, opCancel}
	next := func() int { return rng.Intn(256) }
	ops := randomScript(rng, n)
	for i := range ops {
		if rng.Intn(3) != 0 {
			continue
		}
		b := op{kind: opBatch}
		for k := 2 + rng.Intn(5); k > 0; k-- {
			b.batch = append(b.batch, decodeOp(next, kinds[rng.Intn(len(kinds))]))
		}
		ops[i] = b
	}
	return ops
}

func TestBatchedMatchesOracle(t *testing.T) {
	saved := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := runDifferential(t, randomBatchedScript(rng, 40+rng.Intn(120)), certifyMaxMin)
		if r.os.stats.Passes > r.ns.Stats().Passes {
			saved++
		}
	}
	if saved < 150 {
		t.Fatalf("only %d of 300 scripts saved an allocation pass", saved)
	}
}

// passDeltas runs the script differentially and returns the allocation
// passes System ran at each step.
func passDeltas(t *testing.T, ops []op) []uint64 {
	t.Helper()
	var deltas []uint64
	prev := uint64(0)
	runDifferential(t, ops, func(r *diffRig, step int, _ op) {
		p := r.ns.Stats().Passes
		if step < len(ops) {
			deltas = append(deltas, p-prev)
		}
		prev = p
	})
	return deltas
}

// TestBatchedOnePassPerEvent: flow starts, a cancel, a capacity change
// and rate caps added and removed, all in one event, cost one pass.
func TestBatchedOnePassPerEvent(t *testing.T) {
	ops := []op{
		{kind: opNewPort, name: "node-01/out", value: 1.25e9},
		{kind: opNewPort, name: "node-02/in", value: 1.25e9},
		{kind: opNewPort, name: "rack-0/uplink", value: 7.5e8},
		{kind: opStartFlow, name: "xfer:1->2", bytes: 1e7, ports: []int{0, 1}},
		{kind: opBatch, batch: []op{
			{kind: opStartFlow, name: "xfer:1->2", bytes: 4e6, ports: []int{0, 1, 2}},
			{kind: opStartFlow, name: "xfer:1->2", bytes: 5e6, ports: []int{0, 2}},
			{kind: opCancel, flow: 0},
			{kind: opSetCapacity, port: 2, value: 1.25e9},
			{kind: opSetPriorityCap, flow: 1, value: 1e6},
			{kind: opSetPriorityCap, flow: 2, value: 1e6},
			{kind: opSetPriorityCap, flow: 1, value: 0},
			{kind: opStartFlow, name: "dmerge:3", bytes: 1e6, ports: []int{1}},
		}},
		{kind: opRun, dt: sim.Time(time.Second)},
	}
	d := passDeltas(t, ops)
	if d[4] != 1 {
		t.Fatalf("the batch ran %d passes, want 1", d[4])
	}
}

// TestBatchedEagerFallback pins the changes that must allocate at once:
// whenever every live flow is stalled, the pass could leave no finite
// completion time, and the eager code stops the completion timer where
// a deferred pass would have re-armed it.
func TestBatchedEagerFallback(t *testing.T) {
	cases := []struct {
		name string
		ops  []op
		// batch is the step index of the batch to check and passes the
		// passes it must run.
		batch  int
		passes uint64
	}{
		{
			// Every flow is stalled at SetCapacity(0) and at the start
			// that follows it; the restore defers.
			name: "capacity zero and restore",
			ops: []op{
				{kind: opNewPort, name: "node-01/disk-w", value: 100},
				{kind: opStartFlow, name: "dwrite:1", bytes: 1e6, ports: []int{0}},
				{kind: opBatch, batch: []op{
					{kind: opSetCapacity, port: 0, value: 0},
					{kind: opStartFlow, name: "dwrite:1", bytes: 1e6, ports: []int{0}},
					{kind: opSetCapacity, port: 0, value: 100},
				}},
				{kind: opRun, dt: sim.Time(time.Second)},
			},
			batch: 2, passes: 3,
		},
		{
			// A flow that lists a port twice counts it twice: it stays
			// stalled until both links carry again.
			name: "port listed twice",
			ops: []op{
				{kind: opNewPort, name: "p", value: 100},
				{kind: opNewPort, name: "q", value: 100},
				{kind: opStartFlow, name: "f", bytes: 1e6, ports: []int{0, 0, 1}},
				{kind: opBatch, batch: []op{
					{kind: opSetCapacity, port: 0, value: 0},
					{kind: opSetCapacity, port: 0, value: 100},
				}},
				{kind: opBatch, batch: []op{{kind: opSetCapacity, port: 0, value: 0}}},
				{kind: opRun, dt: sim.Time(time.Second)},
				{kind: opBatch, batch: []op{
					{kind: opSetCapacity, port: 1, value: 0},
					{kind: opSetCapacity, port: 0, value: 100},
					{kind: opSetCapacity, port: 1, value: 100},
				}},
				{kind: opRun, dt: sim.Time(time.Second)},
			},
			batch: 6, passes: 3,
		},
		{
			// Cap ports come and go; a flow left with no link at all runs
			// unconstrained and is never stalled.
			name: "rate cap added and removed",
			ops: []op{
				{kind: opNewPort, name: "p", value: 1000},
				{kind: opStartFlow, name: "f", bytes: 1e6, ports: []int{0}},
				{kind: opStartFlow, name: "g", bytes: 1e5, value: 100},
				{kind: opBatch, batch: []op{
					{kind: opSetPriorityCap, flow: 0, value: 100},
					{kind: opSetPriorityCap, flow: 0, value: 0},
					{kind: opSetPriorityCap, flow: 1, value: 0},
					{kind: opSetPriorityCap, flow: 0, value: 10},
				}},
				{kind: opRun, dt: sim.Time(time.Second)},
			},
			batch: 3, passes: 1,
		},
		{
			// A port of infinite capacity binds nothing, so a flow
			// crossing only it keeps rate 0: it counts as stalled, not
			// only ports at zero.
			name: "infinite capacity",
			ops: []op{
				{kind: opNewPort, name: "loopback", value: math.Inf(1)},
				{kind: opNewPort, name: "p", value: 100},
				{kind: opStartFlow, name: "f", bytes: 1e6, ports: []int{0}},
				{kind: opBatch, batch: []op{
					{kind: opStartFlow, name: "g", bytes: 1e6, ports: []int{1}},
					{kind: opCancel, flow: 1},
					{kind: opStartFlow, name: "h", bytes: 1e3, ports: []int{0, 1}},
				}},
				{kind: opRun, dt: sim.Time(time.Minute)},
			},
			batch: 3, passes: 2,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.ops[c.batch].kind != opBatch {
				t.Fatalf("step %d is not a batch", c.batch)
			}
			if d := passDeltas(t, c.ops); d[c.batch] != c.passes {
				t.Fatalf("the batch ran %d passes, want %d (all steps: %v)", d[c.batch], c.passes, d)
			}
		})
	}
}

// TestRateInsideEvent: Rate runs a pending allocation, so a handler
// reads the rates its own changes produce.
func TestRateInsideEvent(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("p", 100)
	var got []float64
	var done []sim.Time
	e.Schedule(time.Second, func() {
		f := s.StartFlow("f", 1000, []*Port{p}, 0, func() { done = append(done, e.Now()) })
		got = append(got, f.Rate())
		s.StartFlow("g", 500, []*Port{p}, 0, func() { done = append(done, e.Now()) })
		got = append(got, f.Rate())
	})
	e.RunAll()
	if len(got) != 2 || got[0] != 100 || got[1] != 50 {
		t.Fatalf("rates read in the handler %v, want [100 50]", got)
	}
	if want := []sim.Time{11 * time.Second, 16 * time.Second}; len(done) != 2 || done[0] != want[0] || done[1] != want[1] {
		t.Fatalf("completions at %v, want %v", done, want)
	}
	// Two passes run by Rate and one after g completes; f's completion
	// leaves no flow to allocate.
	if st := s.Stats(); st.Passes != 3 {
		t.Fatalf("%d passes, want 3", st.Passes)
	}
}

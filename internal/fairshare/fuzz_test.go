package fairshare

import (
	"math"
	"testing"
)

// FuzzAllocate decodes the input into a script of the differential
// test's operations (decodeScript), runs it on System and on the oracle,
// and after every step checks that they agree bit for bit and that the
// rates carry a max-min fairness certificate. The checked-in corpus under
// testdata/fuzz/FuzzAllocate replays on every `go test`; `make
// fuzz-smoke` searches for new inputs.
func FuzzAllocate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runDifferential(t, decodeScript(data), certifyMaxMin)
	})
}

// FuzzAllocateBatched is FuzzAllocate over decodeBatchedScript, whose
// batches run several changes at one instant, in one event or several
// (queued ahead or posted by the event before), with rate reads between
// them: the ports they touch build up across the changes and the
// instant's deferred allocation must reach every component they
// changed. Its corpus is testdata/fuzz/FuzzAllocateBatched.
func FuzzAllocateBatched(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runDifferential(t, decodeBatchedScript(data), certifyMaxMin)
	})
}

// certifyMaxMin checks the allocation of every active flow:
//   - no rate is NaN, Inf or negative;
//   - no port carries more than its capacity, 1e-9 relative;
//   - a flow crossing a zero-capacity port is stalled;
//   - every other flow crosses a saturated port on which no flow runs
//     faster, which makes the allocation max-min fair.
func certifyMaxMin(r *diffRig, step int, o op) {
	t := r.t
	t.Helper()
	const tol = 1e-9
	load := make(map[*Port]float64)
	fastest := make(map[*Port]float64)
	for _, f := range r.ns.flows {
		rate := f.rate
		if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
			t.Fatalf("step %d %v: flow %q has rate %v", step, o, f.name, rate)
		}
		for _, l := range f.links {
			load[l.port] += rate
			fastest[l.port] = max(fastest[l.port], rate)
		}
	}
	for p, sum := range load {
		if sum > p.capacity*(1+tol) {
			t.Fatalf("step %d %v: port %q carries %v over capacity %v", step, o, p.name, sum, p.capacity)
		}
	}
	for _, f := range r.ns.flows {
		if len(f.links) == 0 {
			continue // unconstrained: no port to saturate
		}
		stalled, certified := false, false
		for _, l := range f.links {
			p := l.port
			if p.capacity == 0 {
				stalled = true
			}
			if load[p] >= p.capacity*(1-tol) && f.rate >= fastest[p]*(1-tol) {
				certified = true
			}
		}
		switch {
		case stalled && f.rate != 0:
			t.Fatalf("step %d %v: flow %q runs at %v through a zero-capacity port", step, o, f.name, f.rate)
		case !certified:
			t.Fatalf("step %d %v: flow %q at %v has no saturated port where it is fastest", step, o, f.name, f.rate)
		}
	}
}

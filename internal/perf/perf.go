// Package perf is the engine performance harness behind `make bench` and
// `almbench -perf`. It runs a curated set of benchmarks — per-figure
// reproductions plus microbenchmarks targeting the event-engine hot
// paths (timer churn, fetch-session churn, event-heap footprint under
// the Fig. 4 spatial-amplification load) — through testing.Benchmark and
// renders the results as the BENCH_engine.json baseline checked into the
// repo root.
//
// The workloads run at 1/8 of the paper's dataset sizes, matching the
// root-package `go test -bench` suite, so numbers from either harness
// are directly comparable.
package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"alm/internal/engine"
	"alm/internal/experiments"
	"alm/internal/faults"
	"alm/internal/sim"
	"alm/internal/sweep"
	"alm/internal/topology"
	"alm/internal/workloads"
)

// Scale is the dataset scale factor every harness workload runs at.
const Scale = 1.0 / 8

// Budget caps a benchmark's allocation profile. Budgets are the source
// of truth for the `make bench-alloc` CI gate: a measured run must stay
// within budget × (1 + Tolerance) on both axes. They are set a little
// above freshly-measured values — tight enough that reintroducing a
// per-fetch fmt.Sprintf or losing a free list trips the gate, loose
// enough that allocator noise does not.
type Budget struct {
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Tolerance   float64 `json:"tolerance"`
}

// Bench is one named entry in the harness.
type Bench struct {
	Name   string
	Desc   string
	Func   func(b *testing.B)
	Budget *Budget
}

// Benchmarks returns the harness entries in a fixed, reproducible order.
//
// Budgets sit ~10% above values measured after the allocation-conscious
// rewrite (interned identifiers, run-local free lists, zero-alloc emit)
// with a further 20% runtime tolerance. The pre-rewrite profile was
// 2–2.5× every budget, so a regression of that class trips the gate
// with a wide margin while allocator noise does not.
func Benchmarks() []Bench {
	return []Bench{
		{
			Name: "timer_churn",
			Desc: "schedule/cancel cycles against a full watchdog window (the watchFetch pattern)",
			Func: benchTimerChurn,
			// Exactly one allocation per op: the *Timer itself. Zero
			// tolerance — this one is deterministic.
			Budget: &Budget{AllocsPerOp: 1, BytesPerOp: 64, Tolerance: 0},
		},
		{
			Name: "queue_cascade",
			Desc: "drain 512 timers spread across every wheel level plus overflow: the advance/cascade path",
			Func: benchQueueCascade,
			// One Timer per scheduled event plus the engine and its
			// warmed heap storage; cascading relinks timers in place and
			// must not allocate per level crossed.
			Budget: &Budget{AllocsPerOp: 540, BytesPerOp: 60_000, Tolerance: 0.20},
		},
		{
			Name:   "fetch_session_churn",
			Desc:   "shuffle-heavy terasort (20 reducers), fetch sessions dominate",
			Func:   benchFetchSessionChurn,
			Budget: &Budget{AllocsPerOp: 65_000, BytesPerOp: 5_800_000, Tolerance: 0.20},
		},
		{
			Name:   "fig4_heap_load",
			Desc:   "event-heap footprint under the Fig. 4 spatial-amplification fault load",
			Func:   benchFig4HeapLoad,
			Budget: &Budget{AllocsPerOp: 71_000, BytesPerOp: 6_200_000, Tolerance: 0.20},
		},
		{
			Name:   "fig3_temporal_amplification",
			Desc:   "reproduce Fig. 3 (temporal amplification timeline)",
			Func:   func(b *testing.B) { benchExperiment(b, "fig3") },
			Budget: &Budget{AllocsPerOp: 8_000, BytesPerOp: 1_050_000, Tolerance: 0.20},
		},
		{
			Name:   "fig4_spatial_amplification",
			Desc:   "reproduce Fig. 4 (healthy reducers infected by one node failure)",
			Func:   func(b *testing.B) { benchExperiment(b, "fig4") },
			Budget: &Budget{AllocsPerOp: 71_000, BytesPerOp: 6_200_000, Tolerance: 0.20},
		},
		{
			Name:   "table2_spatial_cure",
			Desc:   "reproduce Table II (additional failures, YARN vs SFM)",
			Func:   func(b *testing.B) { benchExperiment(b, "table2") },
			Budget: &Budget{AllocsPerOp: 400_000, BytesPerOp: 36_000_000, Tolerance: 0.20},
		},
		{
			Name:   "remote_shuffle_crash",
			Desc:   "remote shuffle tier under a MOF-node crash: push/commit, tier fetches, repair without map rerun",
			Func:   benchRemoteShuffleCrash,
			Budget: &Budget{AllocsPerOp: 87_000, BytesPerOp: 7_200_000, Tolerance: 0.20},
		},
		{
			Name:   "sweep_parallel",
			Desc:   "8 seeded jobs fanned through the sweep scheduler at NumCPU workers",
			Func:   benchSweepParallel,
			Budget: &Budget{AllocsPerOp: 70_000, BytesPerOp: 5_200_000, Tolerance: 0.20},
		},
		{
			Name:   "engine_1000_nodes",
			Desc:   "one job on a 1000-node cluster (2000 maps, 100 reducers): dense SoA state tables under thousand-node load",
			Func:   benchEngine1000Nodes,
			Budget: &Budget{AllocsPerOp: 2_100_000, BytesPerOp: 300_000_000, Tolerance: 0.20},
		},
	}
}

// benchTimerChurn measures the watchFetch pattern: keep a sliding window
// of armed timers, canceling the oldest as each new one is armed. With
// lazy cancellation the event heap grows with the total number of
// schedules; with sift-removal it stays at the window size, which the
// max_event_queue metric makes visible.
func benchTimerChurn(b *testing.B) {
	const window = 1024
	eng := sim.NewEngine(1)
	ring := make([]*sim.Timer, window)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % window
		if ring[slot] != nil {
			ring[slot].Stop()
		}
		ring[slot] = eng.Schedule(sim.Time(1<<40), fn)
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.MaxQueueLen()), "max_event_queue")
}

// benchQueueCascade schedules a geometric spread of delays — sub-tick
// through beyond-horizon — and drains them, so one op measures the
// wheel's advance loop: overflow re-homing, bitmap scans and multi-level
// cascades rather than Schedule itself.
func benchQueueCascade(b *testing.B) {
	delays := make([]sim.Time, 0, 512)
	for i := 0; i < 512; i++ {
		delays = append(delays, sim.Time(1)<<(10+uint(i)%44)+sim.Time(i))
	}
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(1)
		for _, d := range delays {
			eng.Schedule(d, fn)
		}
		eng.RunAll()
	}
}

func scaled(bytes int64) int64 { return int64(float64(bytes) * Scale) }

func benchJob(b *testing.B, spec engine.JobSpec, plan func() *faults.Plan) {
	b.Helper()
	var res engine.Result
	for i := 0; i < b.N; i++ {
		var p *faults.Plan
		if plan != nil {
			p = plan()
		}
		var err error
		res, err = engine.Run(spec, engine.DefaultClusterSpec(), engine.WithPlan(p))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatalf("job failed: %s", res.FailReason)
		}
	}
	b.ReportMetric(res.Duration.Seconds(), "virtual_s")
	b.ReportMetric(float64(res.Events.Processed), "events")
	b.ReportMetric(float64(res.Events.MaxQueue), "max_event_queue")
	b.ReportMetric(float64(res.Events.Stopped), "stopped_events")
}

func benchFetchSessionChurn(b *testing.B) {
	benchJob(b, engine.JobSpec{
		Workload:   workloads.Terasort(),
		InputBytes: scaled(100 << 30),
		NumReduces: 20,
		Mode:       engine.ModeYARN,
		Seed:       11,
	}, nil)
}

func benchFig4HeapLoad(b *testing.B) {
	benchJob(b, engine.JobSpec{
		Workload:   workloads.Terasort(),
		InputBytes: scaled(100 << 30),
		NumReduces: 20,
		Mode:       engine.ModeYARN,
		Seed:       11,
	}, func() *faults.Plan { return faults.StopMOFNodeAtJobProgress(0.55) })
}

// benchRemoteShuffleCrash drives the shuffle-heavy terasort through the
// remote tier (push, replicate, commit, serve) and crashes the busiest
// MOF node mid-shuffle, so the tier's fetch-redirect and repair paths —
// the //alm:hotpath sections of internal/shuffletier — dominate the
// profile instead of local fetch sessions.
func benchRemoteShuffleCrash(b *testing.B) {
	benchJob(b, engine.JobSpec{
		Workload:   workloads.Terasort(),
		InputBytes: scaled(100 << 30),
		NumReduces: 20,
		Mode:       engine.ModeALM,
		Seed:       11,
		Shuffle:    engine.ShuffleOptions{Remote: true},
	}, func() *faults.Plan { return faults.CrashMOFNodeAtJobProgress(0.55) })
}

// benchSweepParallel measures the sweep scheduler itself: a fan of small
// seeded jobs through sweep.Do at NumCPU workers, one engine per worker.
// The per-op cost is the whole fan, so the allocation budget covers the
// scheduler's bookkeeping plus the 8 engine runs.
func benchSweepParallel(b *testing.B) {
	const units = 8
	base := engine.JobSpec{
		Workload:   workloads.Terasort(),
		InputBytes: 8 * 128 << 20, // 8 maps
		NumReduces: 4,
		Mode:       engine.ModeSFM,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := sweep.Do(context.Background(), units, runtime.NumCPU(), func(u int) error {
			spec := base
			spec.Seed = int64(11 + u)
			res, err := engine.Run(spec, engine.DefaultClusterSpec(), engine.WithoutTrace())
			if err != nil {
				return err
			}
			if !res.Completed {
				return fmt.Errorf("unit %d failed: %s", u, res.FailReason)
			}
			return nil
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngine1000Nodes exercises the dense NodeID/task-indexed state
// tables (hostIndex, hostFailures, per-node algLogs, nodeFailures) at a
// scale where the old map-based tables dominated the profile: 1000
// nodes, 2000 maps, 100 reducers.
func benchEngine1000Nodes(b *testing.B) {
	spec := engine.JobSpec{
		Workload:   workloads.Terasort(),
		InputBytes: 2000 * 128 << 20, // 2000 maps
		NumReduces: 100,
		Mode:       engine.ModeSFM,
		Seed:       11,
	}
	cs := engine.ClusterSpec{
		Racks:            50,
		NodesPerRack:     20,
		HW:               topology.DefaultHardware(),
		Oversubscription: 5,
	}
	var res engine.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = engine.Run(spec, cs, engine.WithoutTrace())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatalf("job failed: %s", res.FailReason)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.Events.Processed), "events")
	b.ReportMetric(float64(res.Events.MaxQueue), "max_event_queue")
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	f, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		if _, err := f(experiments.Options{Scale: Scale}); err != nil {
			b.Fatal(err)
		}
	}
}

// Result is one harness entry's measurement.
type Result struct {
	Name        string             `json:"name"`
	Desc        string             `json:"desc"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Budget      *Budget            `json:"budget,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the BENCH_engine.json document.
type File struct {
	Schema  string   `json:"schema"`
	Scale   float64  `json:"bench_scale"`
	GoOS    string   `json:"goos"`
	GoArch  string   `json:"goarch"`
	Results []Result `json:"results"`
}

// RunAll executes every harness benchmark, streaming one progress line
// per entry to log (if non-nil).
func RunAll(log io.Writer) []Result {
	var out []Result
	for _, bm := range Benchmarks() {
		r := testing.Benchmark(bm.Func)
		res := Result{
			Name:        bm.Name,
			Desc:        bm.Desc,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Budget:      bm.Budget,
			Metrics:     r.Extra,
		}
		if log != nil {
			fmt.Fprintf(log, "%-32s %8d iter  %14.0f ns/op  %10d B/op  %8d allocs/op\n",
				bm.Name, res.Iterations, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		}
		out = append(out, res)
	}
	return out
}

// MergeResults overlays extra onto base by benchmark name: matching
// entries are replaced in place, new names append in extra's order. Used
// by `almbench -perf-sweep` to fold sweep wall-clock measurements into
// an existing BENCH_engine.json without re-running the whole harness.
func MergeResults(base, extra []Result) []Result {
	out := make([]Result, len(base))
	copy(out, base)
	idx := make(map[string]int, len(out))
	for i, r := range out {
		idx[r.Name] = i
	}
	for _, r := range extra {
		if i, ok := idx[r.Name]; ok {
			out[i] = r
			continue
		}
		idx[r.Name] = len(out)
		out = append(out, r)
	}
	return out
}

// WriteJSON renders results in the BENCH_engine.json format.
func WriteJSON(w io.Writer, results []Result) error {
	f := File{
		Schema:  "alm/bench-engine/v1",
		Scale:   Scale,
		GoOS:    runtime.GOOS,
		GoArch:  runtime.GOARCH,
		Results: results,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadJSON parses a BENCH_engine.json document.
func ReadJSON(r io.Reader) (*File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("perf: parse bench file: %w", err)
	}
	if f.Schema != "alm/bench-engine/v1" {
		return nil, fmt.Errorf("perf: unknown bench schema %q", f.Schema)
	}
	return &f, nil
}

// CheckBudgets verifies measured results against their budgets and
// returns one violation line per breach (empty means all within
// budget). A result without a budget is never a violation; a budgeted
// axis of 0 means "unbudgeted axis".
func CheckBudgets(results []Result) []string {
	var violations []string
	for _, res := range results {
		b := res.Budget
		if b == nil {
			continue
		}
		if b.AllocsPerOp > 0 {
			limit := int64(float64(b.AllocsPerOp) * (1 + b.Tolerance))
			if res.AllocsPerOp > limit {
				violations = append(violations, fmt.Sprintf(
					"%s: %d allocs/op exceeds budget %d (+%.0f%% tolerance = %d)",
					res.Name, res.AllocsPerOp, b.AllocsPerOp, b.Tolerance*100, limit))
			}
		}
		if b.BytesPerOp > 0 {
			limit := int64(float64(b.BytesPerOp) * (1 + b.Tolerance))
			if res.BytesPerOp > limit {
				violations = append(violations, fmt.Sprintf(
					"%s: %d B/op exceeds budget %d (+%.0f%% tolerance = %d)",
					res.Name, res.BytesPerOp, b.BytesPerOp, b.Tolerance*100, limit))
			}
		}
	}
	return violations
}

// WriteComparison renders per-benchmark deltas between two result sets
// (ns/op, B/op, allocs/op, each with percentage change). Benchmarks
// present in only one set are listed as added/removed.
func WriteComparison(w io.Writer, oldRes, newRes []Result) {
	oldBy := make(map[string]Result, len(oldRes))
	for _, r := range oldRes {
		oldBy[r.Name] = r
	}
	newBy := make(map[string]Result, len(newRes))
	for _, r := range newRes {
		newBy[r.Name] = r
	}
	fmt.Fprintf(w, "%-32s %15s %15s %9s   %12s %12s %9s   %10s %10s %9s\n",
		"benchmark", "old ns/op", "new ns/op", "delta",
		"old B/op", "new B/op", "delta",
		"old allocs", "new allocs", "delta")
	for _, nr := range newRes {
		or, ok := oldBy[nr.Name]
		if !ok {
			fmt.Fprintf(w, "%-32s (added)\n", nr.Name)
			continue
		}
		fmt.Fprintf(w, "%-32s %15.0f %15.0f %9s   %12d %12d %9s   %10d %10d %9s\n",
			nr.Name,
			or.NsPerOp, nr.NsPerOp, pctDelta(or.NsPerOp, nr.NsPerOp),
			or.BytesPerOp, nr.BytesPerOp, pctDelta(float64(or.BytesPerOp), float64(nr.BytesPerOp)),
			or.AllocsPerOp, nr.AllocsPerOp, pctDelta(float64(or.AllocsPerOp), float64(nr.AllocsPerOp)))
	}
	for _, or := range oldRes {
		if _, ok := newBy[or.Name]; !ok {
			fmt.Fprintf(w, "%-32s (removed)\n", or.Name)
		}
	}
}

// pctDelta renders the old→new change as a signed percentage.
func pctDelta(oldV, newV float64) string {
	if oldV == 0 {
		if newV == 0 {
			return "0.0%"
		}
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (newV-oldV)/oldV*100)
}

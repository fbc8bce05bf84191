// Package perf is the engine allocation-budget harness behind
// `almbench -perf` and the `make bench-alloc` CI gate. It runs a curated
// set of benchmarks — per-figure reproductions plus microbenchmarks
// targeting the event-engine hot paths (timer churn, fetch-session
// churn, event-heap footprint under the Fig. 4 spatial-amplification
// load) — through testing.Benchmark and checks each one's allocs/op and
// B/op against the Budget declared next to it here, the budgets' only
// source of truth. Host time is measured by the benchmark of record,
// `bash bench/run.sh`, not here.
//
// The workloads run at 1/8 of the paper's dataset sizes, matching the
// root-package `go test -bench` suite.
package perf

import (
	"context"
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

// Workers is the worker count of every harness entry that fans out
// (sweep_parallel, and the experiments through experiments.Options),
// and RunAll's GOMAXPROCS: each worker allocates its own engine state
// and the runtime some per processor, so a host-dependent count would
// move the pins with the host's CPU count.
const Workers = 2

// Tolerance is how far a measurement may sit from its pin, as a
// fraction of the pin, on either axis. The measurement repeats to within
// a few allocations per op, so anything past this is a real change.
const Tolerance = 0.001

// Budget pins a benchmark's allocation profile: the allocs/op and B/op
// it measures. Pins are the source of truth for the `make bench-alloc`
// CI gate, which fails a measurement more than Tolerance above a pin (a
// regression) or below it (a stale pin, to be re-pinned).
type Budget struct {
	AllocsPerOp int64
	BytesPerOp  int64
}

// Bench is one named entry in the harness.
type Bench struct {
	Name   string
	Desc   string
	Func   func(b *testing.B)
	Budget Budget
}

// Benchmarks returns the harness entries in a fixed, reproducible order.
//
// Each Budget is the value the entry measures (go1.24.0, linux/amd64);
// a change that moves it re-pins it in the same commit.
func Benchmarks() []Bench {
	return []Bench{
		{
			Name: "timer_churn",
			Desc: "schedule/cancel cycles against a full watchdog window (the watchFetch pattern)",
			Func: benchTimerChurn,
			// Exactly one allocation per op: the *Timer itself.
			Budget: Budget{AllocsPerOp: 1, BytesPerOp: 64},
		},
		{
			Name: "queue_cascade",
			Desc: "drain 512 timers spread across every wheel level plus overflow: the advance/cascade path",
			Func: benchQueueCascade,
			// One Timer per scheduled event plus the engine and its
			// warmed heap storage; cascading relinks timers in place and
			// must not allocate per level crossed.
			Budget: Budget{AllocsPerOp: 531, BytesPerOp: 46_880},
		},
		{
			Name:   "fetch_session_churn",
			Desc:   "shuffle-heavy terasort (20 reducers), fetch sessions dominate",
			Func:   benchFetchSessionChurn,
			Budget: Budget{AllocsPerOp: 32_449, BytesPerOp: 3_148_437},
		},
		{
			Name:   "fig4_heap_load",
			Desc:   "event-heap footprint under the Fig. 4 spatial-amplification fault load",
			Func:   benchFig4HeapLoad,
			Budget: Budget{AllocsPerOp: 33_953, BytesPerOp: 3_312_786},
		},
		{
			Name:   "fig3_temporal_amplification",
			Desc:   "reproduce Fig. 3 (temporal amplification timeline)",
			Func:   func(b *testing.B) { benchExperiment(b, "fig3") },
			Budget: Budget{AllocsPerOp: 5_575, BytesPerOp: 769_402},
		},
		{
			Name:   "fig4_spatial_amplification",
			Desc:   "reproduce Fig. 4 (healthy reducers infected by one node failure)",
			Func:   func(b *testing.B) { benchExperiment(b, "fig4") },
			Budget: Budget{AllocsPerOp: 34_076, BytesPerOp: 3_318_531},
		},
		{
			Name:   "table2_spatial_cure",
			Desc:   "reproduce Table II (additional failures, YARN vs SFM)",
			Func:   func(b *testing.B) { benchExperiment(b, "table2") },
			Budget: Budget{AllocsPerOp: 162_874, BytesPerOp: 14_657_514},
		},
		{
			Name: "remote_shuffle_crash",
			Desc: "remote shuffle tier under a MOF-node crash: push/commit, tier fetches, repair without map rerun",
			Func: benchRemoteShuffleCrash,
			// A fair-share pass keys the ports of every change in its
			// instant at once; on this job that grows the bottleneck
			// heap's scratch by about 4.7 kB per op.
			Budget: Budget{AllocsPerOp: 38_799, BytesPerOp: 3_870_062},
		},
		{
			Name: "alg_reduce_snapshots",
			Desc: "ALM terasort (32 GiB, 4 reducers), no faults: ALG snapshots through long reduce stages",
			Func: benchALGReduceSnapshots,
			// Snapshots cost what changed since the last one: the
			// committed flushed prefix is a view of the output, not a
			// copy per snapshot.
			Budget: Budget{AllocsPerOp: 26_054, BytesPerOp: 5_712_916},
		},
		{
			Name:   "sweep_parallel",
			Desc:   "8 seeded jobs fanned through the sweep scheduler at Workers workers",
			Func:   benchSweepParallel,
			Budget: Budget{AllocsPerOp: 36_757, BytesPerOp: 2_996_178},
		},
		{
			Name:   "engine_1000_nodes",
			Desc:   "one job on a 1000-node cluster (2000 maps, 100 reducers): dense SoA state tables under thousand-node load",
			Func:   benchEngine1000Nodes,
			Budget: Budget{AllocsPerOp: 1_028_262, BytesPerOp: 113_908_800},
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

// cold returns spec on a fresh workload of the same name. A workload
// keeps the splits it built (Workload.MapOutput), so one reused across
// b.N would serve every op after the first from memory and make
// allocs/op depend on b.N; on a fresh one each op is one cold job.
func cold(b *testing.B, spec engine.JobSpec) engine.JobSpec {
	w, err := workloads.ByName(spec.Workload.Name)
	if err != nil {
		b.Fatal(err)
	}
	spec.Workload = w
	return spec
}

func benchJob(b *testing.B, spec engine.JobSpec, plan func() *faults.Plan) {
	b.Helper()
	var res engine.Result
	for i := 0; i < b.N; i++ {
		var p *faults.Plan
		if plan != nil {
			p = plan()
		}
		var err error
		res, err = engine.Run(cold(b, spec), engine.DefaultClusterSpec(), engine.WithPlan(p))
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
// internal/shuffletier's push and serve paths — dominate the profile
// instead of local fetch sessions.
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

// benchALGReduceSnapshots runs few reducers over a large input, so each
// reduce stage takes many ALG snapshots while its output grows; a
// snapshot whose cost grows with the output produced so far dominates
// the profile.
func benchALGReduceSnapshots(b *testing.B) {
	benchJob(b, engine.JobSpec{
		Workload:   workloads.Terasort(),
		InputBytes: 32 << 30,
		NumReduces: 4,
		Mode:       engine.ModeALM,
		Seed:       11,
	}, nil)
}

// benchSweepParallel measures the sweep scheduler itself: a fan of small
// seeded jobs through sweep.Do at Workers workers, one engine per worker.
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
		specs := make([]engine.JobSpec, units)
		for u := range specs {
			specs[u] = cold(b, base)
			specs[u].Seed = int64(11 + u)
		}
		err := sweep.Do(context.Background(), units, Workers, func(u int) error {
			spec := specs[u]
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

// benchEngine1000Nodes exercises the dense slot/NodeID/task-indexed
// state tables (hostIndex, per-node algLogs, nodeFailures) at a
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
		res, err = engine.Run(cold(b, spec), cs, engine.WithoutTrace())
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
		if _, err := f(experiments.Options{Scale: Scale, Workers: Workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// Result is one harness entry's allocation measurement.
type Result struct {
	Name        string
	BytesPerOp  int64
	AllocsPerOp int64
	Budget      Budget
}

// RunAll executes every harness benchmark through testing.Benchmark,
// streaming one progress line per entry to log (if non-nil), at
// GOMAXPROCS = Workers.
func RunAll(log io.Writer) []Result {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(Workers))
	var out []Result
	for _, bm := range Benchmarks() {
		r := testing.Benchmark(bm.Func)
		res := Result{
			Name:        bm.Name,
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Budget:      bm.Budget,
		}
		if log != nil {
			fmt.Fprintf(log, "%-32s %12d B/op  %10d allocs/op\n",
				bm.Name, res.BytesPerOp, res.AllocsPerOp)
		}
		out = append(out, res)
	}
	return out
}

// CheckBudgets compares each result with its pin and returns one line
// per axis that sits more than Tolerance away (empty means every entry
// matches its pin). Above the pin is a regression, and the line says
// how to find the new allocations; below it the pin is stale, and the
// line gives the Budget to re-pin.
func CheckBudgets(results []Result) []string {
	var out []string
	for _, res := range results {
		b := res.Budget
		axes := []struct {
			unit, sample string
			got, pin     int64
		}{
			{"allocs/op", "alloc_objects", res.AllocsPerOp, b.AllocsPerOp},
			{"B/op", "alloc_space", res.BytesPerOp, b.BytesPerOp},
		}
		for _, ax := range axes {
			delta := ax.got - ax.pin
			pct := 100 * float64(delta) / float64(ax.pin)
			slack := int64(float64(ax.pin) * Tolerance)
			switch {
			case delta > slack:
				out = append(out, fmt.Sprintf(
					"%s: %d %s is %+d (%+.2f%%) from its pin %d: a regression; locate it with\n"+
						"\tgo test ./internal/perf -run '^$' -bench 'Harness/%s$' -benchtime 1x -memprofilerate 1 -memprofile mem.out\n"+
						"\tgo tool pprof -sample_index=%s -top mem.out",
					res.Name, ax.got, ax.unit, delta, pct, ax.pin, res.Name, ax.sample))
			case -delta > slack:
				out = append(out, fmt.Sprintf(
					"%s: %d %s is %+d (%+.2f%%) from its pin %d: the pin is stale; re-pin it to Budget{AllocsPerOp: %d, BytesPerOp: %d}",
					res.Name, ax.got, ax.unit, delta, pct, ax.pin, res.AllocsPerOp, res.BytesPerOp))
			}
		}
	}
	return out
}

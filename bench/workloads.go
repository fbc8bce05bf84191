package main

import (
	"fmt"
	"hash"
	"io"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"alm"
	"alm/internal/chaos"
	"alm/internal/engine"
	"alm/internal/faults"
	"alm/internal/metrics"
	"alm/internal/mr"
	"alm/internal/topology"
	"alm/internal/trace"
	"alm/internal/workloads"
)

// A workload builds its inputs from the seed once, in setup, and then
// runs identical timed reps over them. Every rep of one seed must
// produce the same digest.
type workload struct {
	name string
	why  string
	// setup builds everything the reps consume; it is what setup_s
	// times. sp records a span per call into a layer (nil: none), under
	// the span parent.
	setup func(seed int64, tiny bool, sp *spans, parent int) (func(*rep), error)
	// counted are the modelled counts, besides countedByAll, that a
	// full-size traced run must see above zero (see requireCounted).
	counted []string
}

// countedByAll are the modelled counts every traced run, even of the
// smoke test's small inputs, sees above zero.
var countedByAll = []string{
	"sim.events", "sim.queue_max", "trace.events",
	"engine.attempts_launched", "engine.attempts_finished",
	"simdisk.write_bytes", "cluster.containers_granted",
}

// faultCounts are the recovery counts of the workloads whose faults
// make reducers fail fetches.
var faultCounts = []string{
	"engine.attempts_failed", "engine.attempts_killed", "engine.fetch_failures",
	"engine.fetch_retries", "engine.map_reruns", "engine.infected_reduces",
}

// allWorkloads are the benchmark's workloads in run order. Each is a
// closed loop of batch simulations on one goroutine: the next
// simulation starts when the previous one returns.
var allWorkloads = []*workload{
	{
		name:    "paper_sweep",
		why:     "all 16 paper experiments at 1/8 scale, what a reproducer runs; mixes every layer, fair-share bandwidth model first",
		setup:   setupPaperSweep,
		counted: append([]string{"shuffletier.ingest_bytes", "shuffletier.replication_bytes"}, faultCounts...),
	},
	{
		name:  "scale_1000",
		why:   "one job on 1000 nodes without faults: fair-share allocation dominates, the event queue and set-up do not",
		setup: setupScale1000,
	},
	{
		name:    "gray_storm",
		why:     "800 small chaos-scheduled jobs: per-run set-up, timers and recovery policies, the costs one big job hides",
		setup:   setupGrayStorm,
		counted: faultCounts,
	},
	{
		name:    "tier_crash",
		why:     "400 GB remote-shuffle job with a MOF-node crash and trace and metrics on: push, replication and the GC",
		setup:   setupTierCrash,
		counted: []string{"engine.attempts_failed", "shuffletier.ingest_bytes", "shuffletier.replication_bytes"},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sweepScale is the paper sweep's dataset scale, the one the repository
// quotes for every change.
const sweepScale = 0.125

func setupPaperSweep(seed int64, tiny bool, _ *spans, _ int) (func(*rep), error) {
	ids := alm.ExperimentIDs()
	if tiny {
		ids = []string{"fig3", "fig10"}
	}
	opt := alm.ExperimentOptions{Scale: sweepScale, Seed: seed, Workers: 1}
	return func(r *rep) {
		for i, id := range ids {
			if i > 0 {
				r.settle()
			}
			o := opt
			// The sink is the only way to see a sweep's event counts. It
			// turns on metrics in every simulation, which a reproducer's
			// sweep does not pay for, so only traced reps attach it.
			if r.traced {
				o.MetricsSink = func(_ string, s *alm.MetricsSnapshot) {
					v, _ := s.Value("alm_sim_events_processed")
					r.events += uint64(v)
					r.addSnapshot(s)
				}
			}
			start := time.Now()
			sid := r.spans.begin("alm.RunExperiment/"+id, r.id, r.span)
			tbl, err := alm.RunExperiment(id, o)
			r.spans.end(sid)
			d := time.Since(start)
			r.op(d)
			r.named["experiments."+id+".wall_s"] = d.Seconds()
			if err != nil {
				r.failed++
				continue
			}
			fmt.Fprintf(r.digest, "# %s\n%s", id, tbl.RenderCSV())
		}
	}, nil
}

func setupScale1000(seed int64, tiny bool, _ *spans, _ int) (func(*rep), error) {
	cs := engine.ClusterSpec{Racks: 50, NodesPerRack: 20, HW: topology.DefaultHardware(), Oversubscription: 5}
	spec := engine.JobSpec{
		Workload:   workloads.Terasort(),
		InputBytes: 200 * 128 << 20, // 200 maps
		NumReduces: 100,
		Mode:       engine.ModeSFM,
		Seed:       seed,
	}
	if tiny {
		cs.Racks, cs.NodesPerRack = 2, 4
		spec.InputBytes, spec.NumReduces = 8*128<<20, 4
	}
	if _, err := spec.Defaulted(); err != nil {
		return nil, err
	}
	return func(r *rep) { r.job(spec, cs, engine.WithoutTrace()) }, nil
}

// stormCase is one chaos seed: its job under each mode and its fault plan.
type stormCase struct {
	specs []engine.JobSpec
	plan  *faults.Plan
}

func setupGrayStorm(seed int64, tiny bool, sp *spans, parent int) (func(*rep), error) {
	sh, cs := chaos.CheckShape()
	n := 100
	if tiny {
		n = 2
	}
	// The jobs are the ones the chaos checker runs: the workload rotates
	// with the seed, and the attempt cap is raised so compound schedules
	// stay recoverable.
	wls := []*workloads.Workload{workloads.Terasort(), workloads.Wordcount(), workloads.Secondarysort()}
	conf := mr.DefaultConfig()
	conf.MaxTaskAttempts = 8
	cases := make([]stormCase, n)
	for i := range cases {
		s := seed + int64(i)
		id := sp.begin("chaos.Generate", "setup", parent)
		sched := chaos.Generate(s, chaos.DefaultBudget(), sh)
		sp.end(id)
		// engine.Run clones the plan, so one plan serves every rep.
		cases[i].plan = sched.Plan()
		for _, mode := range chaos.Modes {
			cases[i].specs = append(cases[i].specs, engine.JobSpec{
				Workload:   wls[int(((s%3)+3)%3)],
				InputBytes: int64(sh.Maps) * conf.BlockSizeBytes,
				NumReduces: sh.Reduces,
				Conf:       conf,
				Mode:       mode,
				Seed:       s,
			})
		}
	}
	return func(r *rep) {
		for _, c := range cases {
			for _, spec := range c.specs {
				base, okBase := r.job(spec, cs, engine.WithoutTrace())
				res, ok := r.job(spec, cs, engine.WithoutTrace(), engine.WithPlan(c.plan))
				// Recovery must reproduce the failure-free output exactly.
				if okBase && ok && !sameOutput(base.Output, res.Output) {
					r.failed++
				}
			}
		}
	}, nil
}

func setupTierCrash(seed int64, tiny bool, _ *spans, _ int) (func(*rep), error) {
	spec := engine.JobSpec{
		Workload:   workloads.Terasort(),
		InputBytes: 400 << 30,
		NumReduces: 20,
		Mode:       engine.ModeALM,
		Seed:       seed,
		Shuffle:    engine.ShuffleOptions{Remote: true},
	}
	if tiny {
		spec.InputBytes, spec.NumReduces = 8<<30, 4
	}
	if _, err := spec.Defaulted(); err != nil {
		return nil, err
	}
	plan := faults.CrashMOFNodeAtJobProgress(0.55)
	cs := engine.DefaultClusterSpec()
	return func(r *rep) {
		res, ok := r.job(spec, cs, engine.WithPlan(plan), engine.WithTrace(), engine.WithMetrics())
		if ok {
			io.WriteString(r.digest, res.Trace.Dump())
			r.digest.Write(res.Metrics.Prometheus())
		}
	}, nil
}

func sameOutput(a, b []mr.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rep accumulates one timed repetition of a workload.
type rep struct {
	id     string // "rep1", "rep2", ...
	span   int    // the rep's span, parent of the calls it makes
	spans  *spans
	traced bool

	ops, failed int
	events      uint64 // simulated events
	stopped     uint64 // events stopped before they fired
	digest      hash.Hash
	opMS        []float64
	runSetupMS  []float64          // engine.Run call to its first Observer callback
	named       map[string]float64 // per-rep values with their own names
	counts      map[string]float64 // modelled counts, traced reps only

	mem             *memDelta        // traced reps: runtime counters over the on-clock parts
	memFrom         runtime.MemStats // the counters when the current on-clock part began
	offWall, offCPU float64          // seconds settle took, off the rep's clock
}

// settle gives the process the memory state a fresh process has, off
// the rep's clock: it collects the garbage of what ran before and
// returns its pages. measure settles the process before every rep; a rep
// of several independent simulations settles between them too, so that
// peak_rss_mb does not depend on where a collection fell in the one
// before.
func (r *rep) settle() {
	if r.mem != nil {
		r.mem.add(&r.memFrom)
	}
	t, c := time.Now(), cpuSeconds()
	debug.FreeOSMemory()
	r.offWall += time.Since(t).Seconds()
	r.offCPU += cpuSeconds() - c
	if r.mem != nil {
		runtime.ReadMemStats(&r.memFrom)
	}
}

func (r *rep) op(d time.Duration) {
	r.ops++
	r.opMS = append(r.opMS, float64(d)/1e6)
}

// job runs one engine.Run call as one op. The job's duration, event
// count and output records go into the digest; an error or a job that
// does not complete fails the op. A traced rep adds an Observer and
// WithMetrics.
func (r *rep) job(spec engine.JobSpec, cs engine.ClusterSpec, opts ...engine.RunOption) (engine.Result, bool) {
	start := time.Now()
	var first time.Time
	if r.traced {
		seen := func() {
			if first.IsZero() {
				first = time.Now()
			}
		}
		opts = append(opts, engine.WithMetrics(), engine.WithObserver(engine.ObserverFuncs{
			Event:    func(trace.Event) { seen() },
			Progress: func(engine.ProgressSample) { seen() },
		}))
	}
	sid := r.spans.begin("engine.Run", r.id, r.span)
	res, err := engine.Run(spec, cs, opts...)
	r.spans.end(sid)
	r.op(time.Since(start))
	if !first.IsZero() {
		r.runSetupMS = append(r.runSetupMS, float64(first.Sub(start))/1e6)
	}
	if err != nil || !res.Completed {
		r.failed++
		return res, false
	}
	r.events += res.Events.Processed
	r.stopped += res.Events.Stopped
	if r.traced {
		r.addSnapshot(res.Metrics)
	}
	fmt.Fprintf(r.digest, "job %d %d %d\n", res.Duration, res.Events.Processed, len(res.Output))
	var b []byte
	for _, rec := range res.Output {
		b = strconv.AppendInt(b[:0], int64(len(rec.Key)), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(len(rec.Value)), 10)
		b = append(b, ' ')
		b = append(b, rec.Key...)
		b = append(b, rec.Value...)
		r.digest.Write(append(b, '\n'))
	}
	return res, true
}

// eventCounts maps trace event kinds to the modelled counts they feed.
var eventCounts = map[string]string{
	string(trace.KindTaskLaunched):   "engine.attempts_launched",
	string(trace.KindTaskFinished):   "engine.attempts_finished",
	string(trace.KindTaskFailed):     "engine.attempts_failed",
	string(trace.KindTaskKilled):     "engine.attempts_killed",
	string(trace.KindFetchFailure):   "engine.fetch_failures",
	string(trace.KindMapRescheduled): "engine.map_reruns",
}

// seriesCounts maps metrics series to the modelled counts they feed.
var seriesCounts = map[string]string{
	"alm_fetch_retries_total":              "engine.fetch_retries",
	"alm_infected_reduce_failures_total":   "engine.infected_reduces",
	"alm_disk_write_bytes_total":           "simdisk.write_bytes",
	"alm_cluster_containers_granted_total": "cluster.containers_granted",
	"alm_tier_ingest_bytes_total":          "shuffletier.ingest_bytes",
	"alm_tier_replication_bytes_total":     "shuffletier.replication_bytes",
	"alm_tier_repush_bytes_total":          "shuffletier.repush_bytes",
}

// addSnapshot folds one simulation's final metrics into the rep's
// modelled counts.
func (r *rep) addSnapshot(s *metrics.Snapshot) {
	if s == nil {
		return
	}
	for _, se := range s.Series {
		switch se.Name {
		case "alm_events_total":
			r.counts["trace.events"] += se.Value
			for _, l := range se.Labels {
				if name, ok := eventCounts[l.Value]; ok && l.Name == "kind" {
					r.counts[name] += se.Value
				}
			}
		case "alm_sim_event_queue_max":
			r.counts["sim.queue_max"] = max(r.counts["sim.queue_max"], se.Value)
		case "alm_tier_backpressure_stall_seconds":
			r.counts["shuffletier.stall_s"] += se.Sum
		default:
			if name, ok := seriesCounts[se.Name]; ok {
				r.counts[name] += se.Value
			}
		}
	}
}

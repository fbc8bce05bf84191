package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric of BENCHMARK.json. Bound, for an end-to-end
// metric, is the share of the baseline median by which the metric may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, reported by
// every workload's untraced run as the median over its reps.
//
// peak_rss_mb's bound is 10%. The host times get 25%, the largest bound
// BENCHMARK.json accepts: on a shared VM, a memory-bound loop that does
// not touch the simulator drifts by up to 20% between 25 s windows, so
// run medians of unchanged code differ by more than 10% (README.md,
// "Noise"). setup_s, well under a millisecond to a few, may move by 10%
// or 20 ms, whichever is larger, which is again 25% at most.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// eventRate is reported only by the workloads that call engine.Run
// themselves, so it is in a run's detail and -compare, not in
// BENCHMARK.json, whose metrics every workload reports.
var eventRate = metricDef{"events_per_s", "1/s", "higher", 0.25}

// A run takes setupSamples samples of its set-up time, each the mean of
// as many consecutive set-ups as fill setupSampleS CPU seconds; setup_s
// is their median. A set-up takes from a fraction of a microsecond to a few
// milliseconds, and one timing of the shortest is mostly timer noise.
const (
	setupSamples = 21
	setupSampleS = 0.005
)

// timedLayers are the layers every workload spends CPU time in. The
// others get a share only: a workload that never enters a layer would
// report its time as a constant zero.
var timedLayers = []string{"fairshare", "engine", "sim", "cluster", "dfs", "merge", "runtime"}

// perLayer are the metrics every workload's traced run reports.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range timedLayers {
		defs = append(defs, metricDef{Name: "cpu." + l + ".self_s", Unit: "s", Better: "lower"})
	}
	for _, l := range layers {
		// chaos.Generate runs in set-up only, outside the profile.
		if l != "chaos" {
			defs = append(defs, metricDef{Name: "cpu." + l + ".share", Unit: "%", Better: "lower"})
		}
	}
	for _, d := range []struct{ name, unit string }{
		{"traced.cpu_s", "s"},
		{"sim.events", "count"},
		{"sim.queue_max", "count"},
		{"sim.ns_per_event", "ns"},
		{"trace.events", "count"},
		{"runtime.alloc_bytes", "B"},
		{"runtime.alloc_objects", "count"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_s", "s"},
		{"engine.attempts_launched", "count"},
		{"engine.attempts_finished", "count"},
		{"engine.attempts_failed", "count"},
		{"engine.attempts_killed", "count"},
		{"engine.useful_attempt_ratio", "ratio"},
		{"engine.fetch_failures", "count"},
		{"engine.fetch_retries", "count"},
		{"engine.map_reruns", "count"},
		{"engine.infected_reduces", "count"},
		{"simdisk.write_bytes", "B"},
		{"cluster.containers_granted", "count"},
		{"shuffletier.ingest_bytes", "B"},
		{"shuffletier.replication_bytes", "B"},
		{"shuffletier.repush_bytes", "B"},
	} {
		better := "lower"
		if d.name == "engine.useful_attempt_ratio" {
			better = "higher"
		}
		defs = append(defs, metricDef{Name: d.name, Unit: d.unit, Better: better})
	}
	return defs
}()

// modelledCounts are the metrics that describe the simulated cluster,
// not the host: a change that only makes the simulator faster must leave
// them exactly equal.
var modelledCounts = []string{
	"sim.events", "sim.events_stopped", "sim.queue_max", "trace.events",
	"engine.attempts_launched", "engine.attempts_finished", "engine.attempts_failed",
	"engine.attempts_killed", "engine.useful_attempt_ratio", "engine.fetch_failures",
	"engine.fetch_retries", "engine.map_reruns", "engine.infected_reduces",
	"simdisk.write_bytes", "cluster.containers_granted",
	"shuffletier.ingest_bytes", "shuffletier.replication_bytes", "shuffletier.repush_bytes",
	"shuffletier.stall_s",
}

// series is every sample one run took of one metric.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// runReport is one measured run of one workload: its op counts, its
// digest and every sample of every metric, including the ones
// BENCHMARK.json does not list.
type runReport struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Reps      int                `json:"reps"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest"`
	Metrics   map[string]*series `json:"metrics"`
}

func (rr *runReport) add(name, unit string, vals ...float64) {
	s := rr.Metrics[name]
	if s == nil {
		s = &series{Unit: unit}
		rr.Metrics[name] = s
	}
	s.Values = append(s.Values, vals...)
}

// runConfig is one measured run: one workload, one seed, one window.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64 // reps start while they are expected to end inside it
	trace   bool
	tiny    bool   // the smoke test's small inputs
	outDir  string // where a traced run writes its profile and spans
	pinned  string // expected digest; "" only requires that reps agree
}

// measure sets the workload up, runs reps over the last set-up until
// the window is spent and checks every rep's output.
func measure(cfg runConfig) (*runReport, error) {
	rr := &runReport{Workload: cfg.w.name, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]*series{}}
	var sp *spans
	if cfg.trace {
		sp = &spans{t0: time.Now()}
	}
	run, err := setUp(cfg, sp, rr)
	if err != nil {
		return nil, err
	}

	var prof bytes.Buffer
	var mem memDelta
	if cfg.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	var reps []*rep
	window := time.Now()
	for i := 1; ; i++ {
		r := &rep{
			id:     "rep" + strconv.Itoa(i),
			spans:  sp,
			traced: cfg.trace,
			digest: sha256.New(),
			named:  map[string]float64{},
			counts: map[string]float64{},
		}
		r.settle() // as a user's one sweep or job starts, in a fresh process
		r.offWall, r.offCPU = 0, 0
		if cfg.trace {
			r.mem = &mem
			runtime.ReadMemStats(&r.memFrom)
		}
		t, c := time.Now(), cpuSeconds()
		r.span = sp.begin("rep", r.id, 0)
		run(r)
		sp.end(r.span)
		wall, cpu := time.Since(t).Seconds()-r.offWall, cpuSeconds()-c-r.offCPU
		if cfg.trace {
			mem.add(&r.memFrom)
		}
		reps = append(reps, r)
		rr.add("wall_s", "s", wall)
		rr.add("cpu_s", "s", cpu)
		if r.events > 0 { // only engine.Run calls count events untraced
			rr.add(eventRate.Name, eventRate.Unit, float64(r.events)/cpu)
		}
		if time.Since(window).Seconds()+wall > cfg.seconds {
			break
		}
	}
	if cfg.trace {
		pprof.StopCPUProfile()
	}
	rr.check(reps, cfg.pinned)
	peak, err := peakRSS()
	if err != nil {
		return nil, err
	}
	rr.add("peak_rss_mb", "MB", peak)
	if !cfg.trace {
		return rr, nil
	}
	if err := rr.addTraced(reps, prof.Bytes(), &mem); err != nil {
		return nil, err
	}
	counted := countedByAll
	if !cfg.tiny {
		counted = append(append([]string{}, countedByAll...), cfg.w.counted...)
	}
	if err := rr.requireCounted(counted); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, cfg.w.name+".pprof"), prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return rr, sp.write(filepath.Join(cfg.outDir, cfg.w.name+".spans.jsonl"))
}

// setUp builds the workload's inputs over and over, adds the setup_s
// samples to rr and returns the last set-up's rep function. Only the
// first set-up records spans.
func setUp(cfg runConfig, sp *spans, rr *runReport) (func(*rep), error) {
	var run func(*rep)
	// A batch is timed in CPU seconds: a set-up neither waits nor runs in
	// parallel, and CPU time leaves out what the hypervisor steals.
	batch := func(n int) (float64, error) {
		start := cpuSeconds()
		for i := 0; i < n; i++ {
			id := sp.begin("setup", "setup", 0)
			var err error
			run, err = cfg.w.setup(cfg.seed, cfg.tiny, sp, id)
			sp.end(id)
			if err != nil {
				return 0, fmt.Errorf("%s set-up: %w", cfg.w.name, err)
			}
			sp = nil
		}
		return cpuSeconds() - start, nil
	}
	// Size the samples as testing.B sizes b.N: double the set-ups in a
	// batch until one lasts setupSampleS.
	n := 1
	for {
		s, err := batch(n)
		if err != nil {
			return nil, err
		}
		if s >= setupSampleS {
			break
		}
		n *= 2
	}
	for i := 0; i < setupSamples; i++ {
		s, err := batch(n)
		if err != nil {
			return nil, err
		}
		rr.add("setup_s", "s", s/float64(n))
	}
	return run, nil
}

// requireCounted fails a traced run in which one of the named modelled
// counts is 0. The benchmark reads the counts by metric and event-kind
// name, so a count a workload always produces reads 0 only when a name
// it is read from has changed.
func (rr *runReport) requireCounted(names []string) error {
	for _, name := range names {
		if s := rr.Metrics[name]; s == nil || s.Values[0] == 0 {
			return fmt.Errorf("%s: modelled count %s is 0; was a metric or event kind it is read from renamed?", rr.Workload, name)
		}
	}
	return nil
}

// memDelta sums the runtime's allocation and GC counters over the
// on-clock parts of each rep.
type memDelta struct {
	allocBytes, allocObjects, gcCycles, gcPauseNs uint64
}

// add adds the change in the counters since m0.
func (d *memDelta) add(m0 *runtime.MemStats) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	d.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	d.allocObjects += m1.Mallocs - m0.Mallocs
	d.gcCycles += uint64(m1.NumGC - m0.NumGC)
	d.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
}

// check fails every op of a rep whose digest differs from the pinned one
// (or, with none pinned, from the first rep's) or whose modelled counts
// differ from the first rep's, and adds the per-op metrics.
func (rr *runReport) check(reps []*rep, pinned string) {
	rr.Reps = len(reps)
	rr.Digest = hex.EncodeToString(reps[0].digest.Sum(nil))
	if pinned == "" {
		pinned = rr.Digest
	}
	var opMS []float64
	for _, r := range reps {
		if hex.EncodeToString(r.digest.Sum(nil)) != pinned || !maps.Equal(r.counts, reps[0].counts) {
			r.failed = r.ops
		}
		rr.Attempted += r.ops
		rr.Failed += r.failed
		opMS = append(opMS, r.opMS...)
		for name, v := range r.named {
			rr.add(name, "s", v)
		}
	}
	rr.add("fail_frac", "ratio", float64(rr.Failed)/float64(rr.Attempted))
	rr.add("op_ms_p50", "ms", percentile(opMS, 50))
	rr.add("op_ms_p99", "ms", percentile(opMS, 99))
	rr.add("op_n", "count", float64(len(opMS)))
}

// addTraced adds the per-layer metrics of a traced run: CPU per layer
// from its profile, runtime counters from the MemStats taken around each
// rep, and the first rep's modelled counts.
func (rr *runReport) addTraced(reps []*rep, prof []byte, mem *memDelta) error {
	table, err := reduceProfile(prof)
	if err != nil {
		return err
	}
	n := float64(len(reps))
	total := float64(max(table.total(), 1)) // a very short run may take no sample
	for _, l := range layers {
		rr.add("cpu."+l+".self_s", "s", float64(table[l])/1e9/n)
		rr.add("cpu."+l+".share", "%", 100*float64(table[l])/total)
	}
	first := reps[0]
	var runSetupMS []float64
	for _, r := range reps {
		runSetupMS = append(runSetupMS, r.runSetupMS...)
	}
	if len(runSetupMS) > 0 { // the workload calls engine.Run itself
		rr.add("engine.run_setup_ms_p50", "ms", percentile(runSetupMS, 50))
		rr.add("engine.run_setup_n", "count", float64(len(runSetupMS)))
		rr.add("sim.events_stopped", "count", float64(first.stopped))
	}
	rr.Metrics["traced.cpu_s"] = &series{Unit: "s", Values: rr.Metrics["cpu_s"].Values}
	rr.add("sim.events", "count", float64(first.events))
	rr.add("sim.ns_per_event", "ns", median(rr.Metrics["cpu_s"].Values)/float64(first.events)*1e9)
	rr.add("runtime.alloc_bytes", "B", float64(mem.allocBytes)/n)
	rr.add("runtime.alloc_objects", "count", float64(mem.allocObjects)/n)
	rr.add("runtime.gc_cycles", "count", float64(mem.gcCycles)/n)
	rr.add("runtime.gc_pause_s", "s", float64(mem.gcPauseNs)/1e9/n)
	c := first.counts
	c["engine.useful_attempt_ratio"] = c["engine.attempts_finished"] / c["engine.attempts_launched"]
	for _, d := range perLayer {
		if rr.Metrics[d.Name] == nil { // a modelled count
			rr.add(d.Name, d.Unit, c[d.Name])
		}
	}
	rr.add("shuffletier.stall_s", "sim_s", c["shuffletier.stall_s"])
	return nil
}

// peakRSS is this process's resident-set high-water mark in MB. It is
// read from /proc rather than getrusage, whose maxrss carries over the
// RSS of the process that forked this one.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("/proc/self/status has no VmHWM")
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// resultLine is the last line a run prints: the medians of the metrics
// BENCHMARK.json lists for the mode.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rr *runReport) resultLine() ([]byte, error) {
	defs := endToEnd
	if rr.Trace {
		defs = perLayer
	}
	line := resultLine{Correct: rr.Failed == 0, Attempted: rr.Attempted, Failed: rr.Failed, Metrics: map[string]resultItem{}}
	for _, d := range defs {
		s := rr.Metrics[d.Name]
		if s == nil || len(s.Values) == 0 {
			return nil, fmt.Errorf("%s: metric %s was not measured", rr.Workload, d.Name)
		}
		line.Metrics[d.Name] = resultItem{Value: median(s.Values), Unit: d.Unit}
	}
	return json.Marshal(line)
}

// spans records the benchmark's own spans around its calls into the
// simulator's layers, in memory; a nil *spans records nothing.
type spans struct {
	t0   time.Time
	list []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Rep    string `json:"rep"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// begin opens a span and returns its id (0 when not recording).
func (s *spans) begin(name, rep string, parent int) int {
	if s == nil {
		return 0
	}
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, Rep: rep, Start: time.Since(s.t0).Nanoseconds()})
	return len(s.list)
}

func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	s.list[id-1].End = time.Since(s.t0).Nanoseconds()
}

// write saves the spans as JSON lines.
func (s *spans) write(path string) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

//go:embed testdata/digests.json
var digestsJSON []byte

// pinnedDigest is the recorded digest of a workload's output for a
// seed, or "" when none is pinned.
func pinnedDigest(workload string, seed int64) (string, error) {
	var pinned map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &pinned); err != nil {
		return "", errors.New("testdata/digests.json: " + err.Error())
	}
	return pinned[workload][strconv.FormatInt(seed, 10)], nil
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	var f benchmarkFile
	if err := readJSON("../BENCHMARK.json", &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// BENCHMARK.json must describe what the program runs and reports.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	if f.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %v, the program's default window is %v", f.RunSeconds, runSeconds)
	}
	if len(f.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(f.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want {%s %s}", i, f.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v\nwant %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v\nwant %+v", f.PerLayer, perLayer)
	}
}

// A tiny variant of every workload, run untraced and then traced, fails
// no op, produces one digest both times, and emits every metric
// BENCHMARK.json names, with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, d := range append(append([]metricDef{}, f.EndToEnd...), f.PerLayer...) {
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q", d.Name)
		}
	}
	out := t.TempDir()
	for _, w := range allWorkloads {
		if !name.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
		var digests []string
		for _, traced := range []bool{false, true} {
			rr, err := measure(runConfig{w: w, seed: 11, trace: traced, tiny: true, outDir: out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if rr.Failed != 0 || rr.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed", w.name, traced, rr.Failed, rr.Attempted)
			}
			digests = append(digests, rr.Digest)
			b, err := rr.resultLine()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			var line resultLine
			if err := json.Unmarshal(b, &line); err != nil {
				t.Fatal(err)
			}
			defs := f.EndToEnd
			if traced {
				defs = f.PerLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, d.Name, m, d.Unit)
				}
			}
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %s untraced, %s traced", w.name, digests[0], digests[1])
		}
		for _, file := range []string{w.name + ".pprof", w.name + ".spans.jsonl"} {
			if _, err := os.Stat(filepath.Join(out, file)); err != nil {
				t.Errorf("traced run wrote no %s: %v", file, err)
			}
		}
	}
}

// A digest that differs from the pinned one fails every op.
func TestPinnedDigestMismatchFails(t *testing.T) {
	w, err := workloadByName("tier_crash")
	if err != nil {
		t.Fatal(err)
	}
	rr, err := measure(runConfig{w: w, seed: 11, tiny: true, pinned: "not the digest"})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Failed != rr.Attempted || rr.Attempted == 0 {
		t.Errorf("%d of %d ops failed, want all", rr.Failed, rr.Attempted)
	}
}

// A modelled count that reads 0 where the workload always produces one
// fails the traced run instead of being reported.
func TestRequireCountedRejectsZero(t *testing.T) {
	rr := &runReport{Workload: "w", Metrics: map[string]*series{
		"engine.attempts_launched": {Values: []float64{3}},
		"engine.map_reruns":        {Values: []float64{0}},
	}}
	if err := rr.requireCounted([]string{"engine.attempts_launched"}); err != nil {
		t.Errorf("nonzero count: %v", err)
	}
	for _, name := range []string{"engine.map_reruns", "engine.unknown"} {
		if err := rr.requireCounted([]string{"engine.attempts_launched", name}); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestPinnedDigestsCoverEveryWorkload(t *testing.T) {
	for _, w := range allWorkloads {
		for _, seed := range pinnedSeeds {
			d, err := pinnedDigest(w.name, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(d) != 64 {
				t.Errorf("%s seed %d: pinned digest %q", w.name, seed, d)
			}
		}
	}
}

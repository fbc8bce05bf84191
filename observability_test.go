package alm

import (
	"bytes"
	"testing"

	"alm/internal/metrics/lint"
)

func obsSpec() JobSpec {
	return JobSpec{
		Workload:   Terasort(),
		InputBytes: 2 << 30,
		NumReduces: 4,
		Mode:       ModeSFM,
		Seed:       3,
	}
}

// TestMetricsByteIdentical runs each seeded job twice and demands
// byte-identical Prometheus-text and JSON exports: metrics must not leak
// map iteration order, wall-clock time or any other nondeterminism. The
// Prometheus text must also pass the exposition-format checker, so an
// invalid metric name, label or bucket layout in the engine fails here.
// The fig4 case is the paper's Fig. 4 spatial-amplification run at 1/8
// scale: Terasort, stock YARN, MOF-node loss at 55% job progress.
func TestMetricsByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		plan *FaultPlan
	}{
		{"sfm_node_of_reduce", obsSpec(), StopNodeOfTaskAtReduceProgress(ReduceTask, 0, 0.5)},
		{"fig4_yarn_mof_node", JobSpec{
			Workload:   Terasort(),
			InputBytes: int64(12.5 * (1 << 30)),
			NumReduces: 20,
			Mode:       ModeYARN,
			Seed:       11,
		}, StopMOFNodeAtJobProgress(0.55)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() *MetricsSnapshot {
				res, err := Run(tc.spec, DefaultClusterSpec(), WithFaults(tc.plan), WithMetrics())
				if err != nil {
					t.Fatal(err)
				}
				if res.Metrics == nil {
					t.Fatal("WithMetrics did not populate Result.Metrics")
				}
				return res.Metrics
			}
			a, b := run(), run()
			if len(a.Series) == 0 {
				t.Fatal("snapshot has no series")
			}
			prom := a.Prometheus()
			if err := lint.Check(prom); err != nil {
				t.Errorf("Prometheus export fails the exposition-format check: %v", err)
			}
			if !bytes.Equal(prom, b.Prometheus()) {
				t.Error("Prometheus exports differ between identical seeded runs")
			}
			if !bytes.Equal(a.JSON(), b.JSON()) {
				t.Error("JSON exports differ between identical seeded runs")
			}
		})
	}
}

// obsRecording captures everything one observer sees, flattened to a
// comparable stream.
type obsRecording struct {
	events    []TraceEvent
	progress  []ProgressSample
	deltaKeys []string
}

func recordRun(t *testing.T, plan *FaultPlan) obsRecording {
	t.Helper()
	var rec obsRecording
	obs := ObserverFuncs{
		Event:    func(e TraceEvent) { rec.events = append(rec.events, e) },
		Progress: func(s ProgressSample) { rec.progress = append(rec.progress, s) },
		Metrics: func(d MetricsDelta) {
			for _, s := range d {
				rec.deltaKeys = append(rec.deltaKeys, s.Name)
			}
		},
	}
	res, err := Run(obsSpec(), DefaultClusterSpec(), WithFaults(plan), WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("job failed: %s", res.FailReason)
	}
	return rec
}

// TestObserverOrdering checks the streaming contract: callbacks arrive
// in nondecreasing sim-time order, and two identical seeded runs see the
// exact same sequence.
func TestObserverOrdering(t *testing.T) {
	plan := FailTaskAtProgress(ReduceTask, 0, 0.5)
	a := recordRun(t, plan)
	if len(a.events) == 0 || len(a.progress) == 0 || len(a.deltaKeys) == 0 {
		t.Fatalf("observer saw events=%d progress=%d deltaSeries=%d; want all > 0",
			len(a.events), len(a.progress), len(a.deltaKeys))
	}
	for i := 1; i < len(a.events); i++ {
		if a.events[i].At < a.events[i-1].At {
			t.Fatalf("event %d at %v precedes event %d at %v", i, a.events[i].At, i-1, a.events[i-1].At)
		}
	}
	for i := 1; i < len(a.progress); i++ {
		if a.progress[i].At < a.progress[i-1].At {
			t.Fatalf("progress sample %d at %v precedes sample %d", i, a.progress[i].At, i-1)
		}
	}

	b := recordRun(t, plan)
	if len(a.events) != len(b.events) {
		t.Fatalf("event streams differ in length: %d vs %d", len(a.events), len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("event %d differs between runs:\n  %+v\n  %+v", i, a.events[i], b.events[i])
		}
	}
	if len(a.progress) != len(b.progress) {
		t.Fatalf("progress streams differ in length: %d vs %d", len(a.progress), len(b.progress))
	}
	for i := range a.progress {
		if a.progress[i] != b.progress[i] {
			t.Fatalf("progress sample %d differs between runs", i)
		}
	}
	if len(a.deltaKeys) != len(b.deltaKeys) {
		t.Fatalf("metrics delta streams differ in length: %d vs %d", len(a.deltaKeys), len(b.deltaKeys))
	}
	for i := range a.deltaKeys {
		if a.deltaKeys[i] != b.deltaKeys[i] {
			t.Fatalf("metrics delta %d differs between runs: %s vs %s", i, a.deltaKeys[i], b.deltaKeys[i])
		}
	}
}

// TestWithFaultsGolden pins the WithFaults path the deleted RunWithPlan
// shim aliased: two identical Run(spec, cs, WithFaults(plan),
// WithTrace()) calls must agree on every observable the shim test
// compared — duration, event count, failure accounting, output and
// trace length — and actually exercise the injected fault.
func TestWithFaultsGolden(t *testing.T) {
	plan := FailTaskAtProgress(ReduceTask, 0, 0.5)
	run := func() Result {
		res, err := Run(obsSpec(), DefaultClusterSpec(), WithFaults(plan), WithTrace())
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == nil {
			t.Fatal("WithTrace did not attach the trace")
		}
		if !res.Completed {
			t.Fatalf("job failed: %s", res.FailReason)
		}
		return res
	}
	old, niu := run(), run()
	if old.ReduceAttemptFailures == 0 {
		t.Fatal("injected reduce failure left no trace in the failure accounting")
	}
	if old.Duration != niu.Duration {
		t.Fatalf("durations differ: %v vs %v", old.Duration, niu.Duration)
	}
	if old.Events.Processed != niu.Events.Processed {
		t.Fatalf("event counts differ: %d vs %d", old.Events.Processed, niu.Events.Processed)
	}
	if old.ReduceAttemptFailures != niu.ReduceAttemptFailures {
		t.Fatalf("failure accounting differs: %d vs %d", old.ReduceAttemptFailures, niu.ReduceAttemptFailures)
	}
	if len(old.Output) != len(niu.Output) {
		t.Fatalf("outputs differ: %d vs %d records", len(old.Output), len(niu.Output))
	}
	if len(old.Trace.Events) != len(niu.Trace.Events) {
		t.Fatalf("traces differ: %d vs %d events", len(old.Trace.Events), len(niu.Trace.Events))
	}
}

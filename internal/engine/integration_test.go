package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"alm/internal/core"
	"alm/internal/faults"
	"alm/internal/mr"
	"alm/internal/workloads"
)

// directOutput computes the expected job output with no runtime at all:
// generate every split's sample, map, partition, then per partition sort
// and group with the workload's comparators and reduce. This is the
// golden reference the engine must match.
func directOutput(spec JobSpec) []mr.Record {
	spec, err := spec.Defaulted()
	if err != nil {
		panic(err)
	}
	w := spec.Workload
	numSplits := int((spec.InputBytes + spec.Conf.BlockSizeBytes - 1) / spec.Conf.BlockSizeBytes)
	part := w.Part()
	buckets := make([][]mr.Record, spec.NumReduces)
	for s := 0; s < numSplits; s++ {
		rng := rand.New(rand.NewSource(spec.Seed*1_000_003 + int64(s)))
		for _, rec := range w.Gen(rng, workloads.SamplePerSplit) {
			w.Map(rec.Key, rec.Value, func(k, v string) {
				p := part(k, spec.NumReduces)
				buckets[p] = append(buckets[p], mr.Record{Key: k, Value: v})
			})
		}
	}
	cmp := w.Cmp()
	grouper := w.Group()
	var out []mr.Record
	for _, b := range buckets {
		sort.SliceStable(b, func(i, j int) bool { return cmp(b[i].Key, b[j].Key) < 0 })
		i := 0
		for i < len(b) {
			j := i + 1
			for j < len(b) && grouper(b[i].Key, b[j].Key) {
				j++
			}
			var values []string
			for k := i; k < j; k++ {
				values = append(values, b[k].Value)
			}
			w.Reduce(b[i].Key, values, func(k, v string) {
				out = append(out, mr.Record{Key: k, Value: v})
			})
			i = j
		}
	}
	return out
}

// canonical sorts records by (key, value) so outputs can be compared as
// multisets (the engine's merge order of equal keys can differ from a
// stable sort's).
func canonical(recs []mr.Record) string {
	cp := append([]mr.Record{}, recs...)
	sort.Slice(cp, func(i, j int) bool {
		if cp[i].Key != cp[j].Key {
			return cp[i].Key < cp[j].Key
		}
		return cp[i].Value < cp[j].Value
	})
	var b strings.Builder
	for _, r := range cp {
		b.WriteString(r.Key)
		b.WriteByte(0)
		b.WriteString(r.Value)
		b.WriteByte(1)
	}
	return b.String()
}

// TestGoldenOutputAllWorkloads: the engine's output must equal the
// directly computed map/reduce semantics for every workload and mode.
func TestGoldenOutputAllWorkloads(t *testing.T) {
	for _, w := range []*workloads.Workload{workloads.Terasort(), workloads.Wordcount(), workloads.Secondarysort()} {
		for _, mode := range []Mode{ModeYARN, ModeALM} {
			spec := JobSpec{Workload: w, InputBytes: 2 << 30, NumReduces: 4, Mode: mode, Seed: 5}
			res, err := Run(spec, smallCluster())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatalf("%s/%v failed: %s", w.Name, mode, res.FailReason)
			}
			want := canonical(directOutput(spec))
			got := canonical(res.Output)
			if got != want {
				t.Fatalf("%s/%v: engine output diverges from direct computation (%d vs %d records)",
					w.Name, mode, len(res.Output), len(directOutput(spec)))
			}
		}
	}
}

// TestGoldenOutputUnderFailures: recovery must preserve exact semantics
// for every mode and a variety of failure scenarios.
func TestGoldenOutputUnderFailures(t *testing.T) {
	w := workloads.Secondarysort() // custom grouper: the hardest case
	spec := JobSpec{Workload: w, InputBytes: 4 << 30, NumReduces: 4, Seed: 9}
	want := canonical(directOutput(spec))
	plans := map[string]func() *faults.Plan{
		"reduce-oom-30": func() *faults.Plan { return faults.FailTaskAtProgress(faults.Reduce, 1, 0.3) },
		"reduce-oom-80": func() *faults.Plan { return faults.FailTaskAtProgress(faults.Reduce, 1, 0.8) },
		"node-of-reduce": func() *faults.Plan {
			return faults.StopNodeOfTaskAtReduceProgress(faults.Reduce, 2, 0.6)
		},
		"mof-node":     func() *faults.Plan { return faults.StopMOFNodeAtJobProgress(0.55) },
		"two-reducers": func() *faults.Plan { return faults.FailTasksAtProgress(faults.Reduce, 2, 0.5) },
	}
	for name, plan := range plans {
		for _, mode := range []Mode{ModeYARN, ModeALG, ModeSFM, ModeALM} {
			s := spec
			s.Mode = mode
			res, err := Run(s, DefaultClusterSpec(), WithPlan(plan()))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatalf("%s/%v failed: %s\n%s", name, mode, res.FailReason, res.Trace.Dump())
			}
			if canonical(res.Output) != want {
				t.Errorf("%s/%v: recovered output diverges from failure-free semantics", name, mode)
			}
		}
	}
}

// TestDeterminism: identical seeds give identical durations, outputs and
// event streams.
func TestDeterminism(t *testing.T) {
	spec := JobSpec{Workload: workloads.Terasort(), InputBytes: 4 << 30, NumReduces: 4, Mode: ModeALM, Seed: 3}
	plan := func() *faults.Plan { return faults.StopNodeOfTaskAtReduceProgress(faults.Reduce, 0, 0.5) }
	a, err := Run(spec, DefaultClusterSpec(), WithPlan(plan()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, DefaultClusterSpec(), WithPlan(plan()))
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration {
		t.Fatalf("durations differ: %v vs %v", a.Duration, b.Duration)
	}
	if len(a.Trace.Events) != len(b.Trace.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Trace.Events), len(b.Trace.Events))
	}
	for i := range a.Trace.Events {
		if a.Trace.Events[i] != b.Trace.Events[i] {
			t.Fatalf("event %d differs:\n%v\n%v", i, a.Trace.Events[i], b.Trace.Events[i])
		}
	}
	if canonical(a.Output) != canonical(b.Output) {
		t.Fatal("outputs differ between identical runs")
	}
}

// TestCrashVsStopNetwork: a crash destroys local data, so ALG local logs
// are unusable; a network stop preserves them but makes them unreachable.
// Both must still recover correctly.
func TestCrashVsStopNetwork(t *testing.T) {
	spec := JobSpec{Workload: workloads.Wordcount(), InputBytes: 4 << 30, NumReduces: 2, Mode: ModeALM, Seed: 4}
	want := canonical(directOutput(spec))
	for _, kind := range []faults.ActionKind{faults.StopNodeNetwork, faults.CrashNode} {
		plan := (&faults.Plan{}).Add(
			faults.Trigger{Kind: faults.AtReducePhaseProgress, Fraction: 0.6},
			faults.Action{Kind: kind, Selector: faults.NodeOfTask, Task: faults.Reduce, TaskIdx: 0},
		)
		res, err := Run(spec, DefaultClusterSpec(), WithPlan(plan))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("kind %v: job failed: %s", kind, res.FailReason)
		}
		if canonical(res.Output) != want {
			t.Errorf("kind %v: output diverges", kind)
		}
	}
}

// TestJobFailsAfterMaxAttempts: a task that keeps dying exhausts its
// attempts and fails the whole job.
func TestJobFailsAfterMaxAttempts(t *testing.T) {
	spec := JobSpec{Workload: workloads.Wordcount(), InputBytes: 1 << 30, NumReduces: 1, Mode: ModeYARN, Seed: 2}
	plan := &faults.Plan{}
	// Kill every attempt of reduce 0 at 50% progress, repeatedly.
	for i := 0; i < 6; i++ {
		plan.Add(
			faults.Trigger{Kind: faults.AtTaskProgress, Task: faults.Reduce, TaskIdx: 0, Fraction: 0.5},
			faults.Action{Kind: faults.FailTask, Task: faults.Reduce, TaskIdx: 0},
		)
	}
	res, err := Run(spec, smallCluster(), WithPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatalf("job should fail after MaxTaskAttempts, got completed (failures=%d)", res.ReduceAttemptFailures)
	}
	if !strings.Contains(res.FailReason, "failed") {
		t.Fatalf("unhelpful failure reason: %q", res.FailReason)
	}
}

// TestFCMCapFallsBackToRegular: with the FCM cap exhausted, speculative
// recovery tasks still run (regular mode) and the job completes.
func TestFCMCapFallsBackToRegular(t *testing.T) {
	spec := JobSpec{Workload: workloads.Terasort(), InputBytes: 8 << 30, NumReduces: 8, Mode: ModeSFM, Seed: 6}
	sfm := core.DefaultSFMOptions()
	sfm.FCMCap = -1 // no FCM budget at all
	spec.SFM = sfm
	res, err := Run(spec, DefaultClusterSpec(), WithPlan(faults.FailTasksAtProgress(faults.Reduce, 3, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("job failed: %s", res.FailReason)
	}
	if res.Counters["fcm.supply.bytes"] != 0 {
		t.Fatalf("FCM ran despite a zero cap: %d supply bytes", res.Counters["fcm.supply.bytes"])
	}
}

// TestConcurrentReduceFailuresAllModes: five simultaneous reducer
// failures recover in every mode with correct output.
func TestConcurrentReduceFailuresAllModes(t *testing.T) {
	spec := JobSpec{Workload: workloads.Terasort(), InputBytes: 10 << 30, NumReduces: 10, Seed: 8}
	want := canonical(directOutput(spec))
	for _, mode := range []Mode{ModeYARN, ModeSFM, ModeALM} {
		s := spec
		s.Mode = mode
		res, err := Run(s, DefaultClusterSpec(), WithPlan(faults.FailTasksAtProgress(faults.Reduce, 5, 0.5)))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("%v: job failed: %s", mode, res.FailReason)
		}
		if canonical(res.Output) != want {
			t.Errorf("%v: output diverges after 5 concurrent failures", mode)
		}
		if res.ReduceAttemptFailures < 5 {
			t.Errorf("%v: expected >=5 reduce failures, got %d", mode, res.ReduceAttemptFailures)
		}
	}
}

// TestInputReplicaLossSurvivable: crashing a node loses one replica of
// each of its input blocks; maps must fall back to surviving replicas.
func TestInputReplicaLossSurvivable(t *testing.T) {
	spec := JobSpec{Workload: workloads.Wordcount(), InputBytes: 4 << 30, NumReduces: 2, Mode: ModeYARN, Seed: 13}
	plan := (&faults.Plan{}).Add(
		faults.Trigger{Kind: faults.AtTime, Time: 5e9}, // 5s: mid map phase
		faults.Action{Kind: faults.CrashNode, Selector: faults.NodeExplicit, Node: 7},
	)
	res, err := Run(spec, DefaultClusterSpec(), WithPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("job failed: %s\n%s", res.FailReason, res.Trace.Dump())
	}
}

// TestQuickRandomFailurePlansPreserveOutput is the big end-to-end
// property: random single-failure plans, any mode — the job either
// completes with exactly the failure-free output, or fails explicitly
// (never silently corrupts).
func TestQuickRandomFailurePlansPreserveOutput(t *testing.T) {
	base := JobSpec{Workload: workloads.Wordcount(), InputBytes: 2 << 30, NumReduces: 2, Seed: 21}
	want := canonical(directOutput(base))
	f := func(seed int64, modeSel, kindSel uint8, fracRaw uint8) bool {
		spec := base
		spec.Mode = []Mode{ModeYARN, ModeALG, ModeSFM, ModeALM}[modeSel%4]
		frac := 0.1 + float64(fracRaw%80)/100.0
		var plan *faults.Plan
		switch kindSel % 4 {
		case 0:
			plan = faults.FailTaskAtProgress(faults.Reduce, int(seed)&1, frac)
		case 1:
			// Plan validation rejects negative indices, so fold the seed
			// into [0, 8) rather than letting negative seeds build an
			// invalid plan.
			plan = faults.FailTaskAtProgress(faults.Map, int(((seed%8)+8)%8), frac)
		case 2:
			plan = faults.StopNodeOfTaskAtReduceProgress(faults.Reduce, 0, frac)
		case 3:
			plan = faults.StopMOFNodeAtJobProgress(0.4 + frac/4)
		}
		res, err := Run(spec, smallCluster(), WithPlan(plan))
		if err != nil {
			return false
		}
		if res.Failed {
			// Explicit failure is acceptable for pathological plans;
			// silent corruption is not.
			return res.FailReason != ""
		}
		return canonical(res.Output) == want
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestModeStrings covers the Stringer.
func TestModeStrings(t *testing.T) {
	cases := map[Mode]string{ModeYARN: "yarn", ModeALG: "alg", ModeSFM: "sfm", ModeALM: "alm"}
	for m, want := range cases {
		if m.String() != want {
			t.Fatalf("Mode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if fmt.Sprint(Mode(99)) == "" {
		t.Fatal("unknown mode should still render")
	}
}

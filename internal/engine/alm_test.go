package engine

import (
	"testing"
	"time"

	"alm/internal/core"
	"alm/internal/faults"
	"alm/internal/mr"
	"alm/internal/trace"
	"alm/internal/workloads"
)

// TestFailureDuringFCMRecovery: the FCM recovery task's own node dies
// mid-recovery (paper Section IV-A-1); another attempt on a healthy node
// must finish the job with correct output.
func TestFailureDuringFCMRecovery(t *testing.T) {
	spec := JobSpec{Workload: workloads.Wordcount(), InputBytes: 8 << 30, NumReduces: 2, Mode: ModeSFM, Seed: 14}
	want := canonical(directOutput(spec))
	plan := (&faults.Plan{}).
		// First: kill reducer 0's node mid-reduce, triggering FCM.
		Add(faults.Trigger{Kind: faults.AtReducePhaseProgress, Fraction: 0.5},
			faults.Action{Kind: faults.StopNodeNetwork, Selector: faults.NodeOfTask, Task: faults.Reduce, TaskIdx: 0}).
		// Then: kill whatever node hosts reducer 0's recovery attempt too.
		Add(faults.Trigger{Kind: faults.AtReducePhaseProgress, Fraction: 0.75},
			faults.Action{Kind: faults.StopNodeNetwork, Selector: faults.NodeOfTask, Task: faults.Reduce, TaskIdx: 0})
	res, err := Run(spec, DefaultClusterSpec(), WithPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("job failed: %s\n%s", res.FailReason, res.Trace.Dump())
	}
	if canonical(res.Output) != want {
		t.Fatal("output diverged after failure during recovery")
	}
	if res.ReduceAttemptFailures < 2 {
		t.Fatalf("expected at least two reduce failures (original + recovery), got %d", res.ReduceAttemptFailures)
	}
	t.Logf("recovered through %d reduce failures in %v", res.ReduceAttemptFailures, res.Duration)
}

// TestWaitAdvisoryEmitted: the SFM wait advisory must appear in the trace
// for the spatial scenario.
func TestWaitAdvisoryEmitted(t *testing.T) {
	spec := terasortSpec(ModeSFM)
	spec.InputBytes = 25 << 30
	res, err := Run(spec, DefaultClusterSpec(), WithPlan(faults.StopMOFNodeAtJobProgress(0.55)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("job failed: %s", res.FailReason)
	}
	if res.Trace.Count(trace.KindWaitAdvisory) == 0 {
		t.Fatal("no wait-advisory events in SFM spatial scenario")
	}
}

// TestALGLogIntervalRespected: halving the interval roughly doubles
// snapshots.
func TestALGLogIntervalRespected(t *testing.T) {
	count := func(interval time.Duration) int64 {
		spec := JobSpec{Workload: workloads.Wordcount(), InputBytes: 4 << 30, NumReduces: 1, Mode: ModeALG, Seed: 17}
		alg := core.DefaultALGOptions()
		alg.Interval = interval
		spec.ALG = alg
		res, err := Run(spec, DefaultClusterSpec())
		if err != nil || !res.Completed {
			t.Fatalf("run failed: %v %v", err, res.FailReason)
		}
		return res.Counters["alg.snapshots"]
	}
	fast := count(5 * time.Second)
	slow := count(20 * time.Second)
	if fast <= slow {
		t.Fatalf("snapshots: 5s interval %d should exceed 20s interval %d", fast, slow)
	}
}

// TestReplicationScopePlumbing: the ALG replication level changes where
// reduce output replicas land.
func TestReplicationScopePlumbing(t *testing.T) {
	for _, lvl := range []mr.ReplicationLevel{mr.ReplicateNode, mr.ReplicateRack, mr.ReplicateCluster} {
		spec := JobSpec{Workload: workloads.Terasort(), InputBytes: 2 << 30, NumReduces: 2, Mode: ModeALG, Seed: 18}
		alg := core.DefaultALGOptions()
		alg.Replication = lvl
		spec.ALG = alg
		res, err := Run(spec, DefaultClusterSpec())
		if err != nil || !res.Completed {
			t.Fatalf("%v: run failed: %v %v", lvl, err, res.FailReason)
		}
	}
}

// TestSpeculativeSiblingsKilled: when one attempt wins, its speculative
// siblings are killed, not failed — they must not count as failures or
// fail the job.
func TestSpeculativeSiblingsKilled(t *testing.T) {
	spec := JobSpec{Workload: workloads.Terasort(), InputBytes: 10 << 30, NumReduces: 4, Mode: ModeSFM, Seed: 19}
	res, err := Run(spec, DefaultClusterSpec(), WithPlan(faults.FailTaskAtProgress(faults.Reduce, 0, 0.4)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("job failed: %s", res.FailReason)
	}
	// One injected failure; local relaunch + speculative FCM raced, one
	// won. Failures must stay at 1.
	if res.ReduceAttemptFailures != 1 {
		t.Fatalf("reduce failures = %d, want exactly the injected one", res.ReduceAttemptFailures)
	}
	killed := res.Trace.CountMatching(func(e trace.Event) bool {
		return e.Kind == trace.KindTaskKilled && e.Detail == "superseded"
	})
	if killed == 0 {
		t.Fatal("no speculative sibling was superseded — the race never happened")
	}
}

// TestFCMSkipsWithALMLogs: under ALM a node failure late in the reduce
// stage lets FCM skip the logged prefix: its supply bytes must be lower
// than the SFM-only run's.
func TestFCMSkipsWithALMLogs(t *testing.T) {
	plan := func() *faults.Plan {
		return faults.StopNodeOfTaskAtReduceProgress(faults.Reduce, 0, 0.85)
	}
	run := func(mode Mode) Result {
		spec := JobSpec{Workload: workloads.Terasort(), InputBytes: 20 << 30, NumReduces: 4, Mode: mode, Seed: 20}
		res, err := Run(spec, DefaultClusterSpec(), WithPlan(plan()))
		if err != nil || !res.Completed {
			t.Fatalf("%v: %v %v", mode, err, res.FailReason)
		}
		return res
	}
	sfm := run(ModeSFM)
	almR := run(ModeALM)
	sfmSupply := sfm.Counters["fcm.supply.bytes"]
	almSupply := almR.Counters["fcm.supply.bytes"]
	if sfmSupply == 0 {
		t.Skip("no FCM recovery happened in the SFM run (timing)")
	}
	if almSupply >= sfmSupply {
		t.Fatalf("ALM FCM supply (%d) not below SFM supply (%d) despite log replay", almSupply, sfmSupply)
	}
	t.Logf("supply bytes: sfm=%d alm=%d (%.0f%% skipped)", sfmSupply, almSupply,
		100*(1-float64(almSupply)/float64(sfmSupply)))
}

package alm

import (
	"testing"
	"time"
)

func TestSharedClusterTwoJobs(t *testing.T) {
	sc, err := NewSharedCluster(ClusterSpec{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sc.Submit(JobSpec{
		Name: "wc", Workload: Wordcount(), InputBytes: 2 << 30, NumReduces: 1, Mode: ModeALM, Seed: 5,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Submit(JobSpec{
		Name: "ts", Workload: Terasort(), InputBytes: 4 << 30, NumReduces: 4, Mode: ModeYARN, Seed: 6,
	}, StopNodeOfTaskAtReduceProgress(ReduceTask, 0, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Result(), b.Result()
	if !ra.Completed || !rb.Completed {
		t.Fatalf("jobs: wc=%v/%s ts=%v/%s", ra.Completed, ra.FailReason, rb.Completed, rb.FailReason)
	}
	if rb.ReduceAttemptFailures == 0 {
		t.Fatal("terasort's injected node failure never materialised")
	}
	if !a.Finished() || !b.Finished() {
		t.Fatal("handles should report finished")
	}
	if sc.Now() <= 0 {
		t.Fatal("virtual clock did not advance")
	}
}

func TestSharedClusterErrors(t *testing.T) {
	sc, err := NewSharedCluster(ClusterSpec{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Run(time.Minute); err == nil {
		t.Fatal("Run with no jobs should error")
	}
	if _, err := sc.Submit(JobSpec{}, nil); err == nil {
		t.Fatal("Submit with no workload should error")
	}
	if _, err := NewSharedCluster(ClusterSpec{Racks: -1}, 1); err == nil {
		t.Fatal("negative topology should error")
	}
}

func TestSharedClusterTimeout(t *testing.T) {
	sc, _ := NewSharedCluster(ClusterSpec{}, 1)
	_, err := sc.Submit(JobSpec{
		Name: "big", Workload: Terasort(), InputBytes: 4 << 30, NumReduces: 2, Mode: ModeYARN, Seed: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Run(5 * time.Second); err == nil {
		t.Fatal("a 5-virtual-second budget cannot finish a 4 GB job; Run should error")
	}
}

// TestSharedClusterReusesPlan submits one fault plan to two fresh shared
// clusters: each run works on its own copy, so the second run fails the
// reducer as the first did, and both report the engine's event totals.
func TestSharedClusterReusesPlan(t *testing.T) {
	plan := StopNodeOfTaskAtReduceProgress(ReduceTask, 0, 0.5)
	for run := 1; run <= 2; run++ {
		sc, err := NewSharedCluster(ClusterSpec{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		j, err := sc.Submit(JobSpec{
			Name: "ts", Workload: Terasort(), InputBytes: 4 << 30, NumReduces: 4, Mode: ModeYARN, Seed: 6,
		}, plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Run(2 * time.Hour); err != nil {
			t.Fatal(err)
		}
		res := j.Result()
		if res.ReduceAttemptFailures == 0 {
			t.Errorf("run %d: the reused plan injected no reduce failure", run)
		}
		if res.Events.Processed == 0 {
			t.Errorf("run %d: Result.Events not filled", run)
		}
	}
}

package engine

import (
	"testing"
	"time"

	"alm/internal/faults"
	"alm/internal/workloads"
)

// runShared drives several jobs on one shared cluster to completion.
func runShared(t *testing.T, specs []JobSpec, plans []*faults.Plan) []Result {
	t.Helper()
	cs := DefaultClusterSpec()
	cs.MaxVirtualTime = 2 * time.Hour
	eng, jobs, err := assemble(cs, 1, specs, plans)
	if err != nil {
		t.Fatal(err)
	}
	if err := drive(eng, jobs, cs, nil); err != nil {
		t.Fatal(err)
	}
	results := make([]Result, len(jobs))
	for i, j := range jobs {
		if !j.Finished() {
			t.Fatalf("job %d (%s) did not finish", i, j.Spec.Name)
		}
		results[i] = j.Result()
	}
	return results
}

// TestTwoJobsShareCluster: two jobs contend for containers and both
// complete with correct output.
func TestTwoJobsShareCluster(t *testing.T) {
	a := JobSpec{Name: "job-a", Workload: workloads.Wordcount(), InputBytes: 4 << 30, NumReduces: 2, Mode: ModeALM, Seed: 51}
	b := JobSpec{Name: "job-b", Workload: workloads.Terasort(), InputBytes: 8 << 30, NumReduces: 4, Mode: ModeYARN, Seed: 52}
	results := runShared(t, []JobSpec{a, b}, nil)
	for i, res := range results {
		if !res.Completed {
			t.Fatalf("job %d failed: %s", i, res.FailReason)
		}
		if len(res.Output) == 0 {
			t.Fatalf("job %d produced no output", i)
		}
	}
	wantA := canonical(directOutput(a))
	if canonical(results[0].Output) != wantA {
		t.Fatal("shared-cluster job A output diverged")
	}
}

// TestSharedClusterContentionSlowsJobs: the same job takes longer when a
// competitor saturates the cluster than when running alone.
func TestSharedClusterContentionSlowsJobs(t *testing.T) {
	solo := JobSpec{Name: "solo", Workload: workloads.Terasort(), InputBytes: 25 << 30, NumReduces: 8, Mode: ModeYARN, Seed: 53}
	alone, err := Run(solo, DefaultClusterSpec())
	if err != nil || !alone.Completed {
		t.Fatalf("solo: %v %v", err, alone.FailReason)
	}
	shared := solo
	shared.Name = "shared"
	competitor := JobSpec{Name: "competitor", Workload: workloads.Terasort(), InputBytes: 50 << 30, NumReduces: 8, Mode: ModeYARN, Seed: 54}
	results := runShared(t, []JobSpec{shared, competitor}, nil)
	if results[0].Duration <= alone.Duration {
		t.Fatalf("contended run (%v) should be slower than solo (%v)", results[0].Duration, alone.Duration)
	}
	t.Logf("solo %v vs contended %v", alone.Duration, results[0].Duration)
}

// TestNodeLossHitsBothJobs: one node failure is observed by both
// AppMasters sharing the cluster.
func TestNodeLossHitsBothJobs(t *testing.T) {
	a := JobSpec{Name: "wa", Workload: workloads.Wordcount(), InputBytes: 6 << 30, NumReduces: 2, Mode: ModeALM, Seed: 55}
	b := JobSpec{Name: "wb", Workload: workloads.Wordcount(), InputBytes: 6 << 30, NumReduces: 2, Mode: ModeALM, Seed: 56}
	plans := []*faults.Plan{
		(&faults.Plan{}).Add(
			faults.Trigger{Kind: faults.AtTime, Time: 60 * time.Second},
			faults.Action{Kind: faults.StopNodeNetwork, Selector: faults.NodeExplicit, Node: 3},
		),
		nil,
	}
	results := runShared(t, []JobSpec{a, b}, plans)
	for i, res := range results {
		if !res.Completed {
			t.Fatalf("job %d failed: %s", i, res.FailReason)
		}
	}
}

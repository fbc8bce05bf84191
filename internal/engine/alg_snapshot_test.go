package engine

import (
	"slices"
	"testing"

	"alm/internal/core"
	"alm/internal/faults"
	"alm/internal/mr"
	"alm/internal/workloads"
)

// TestALGFlushedPrefixSurvivesMigration: reducer 0's node stops in the
// reduce stage after at least one committed HDFS flush. With no FCM
// budget the ALM recovery is a regular speculative attempt on another
// node, which restores from the HDFS log (tryHDFSRestore), inherits the
// flushed prefix and commits more flushes of its own. Committed flushes
// share storage with the attempts' output, so each must still equal the
// copy taken when it was committed after every later append, and the
// recovered output must equal the failure-free run's.
func TestALGFlushedPrefixSurvivesMigration(t *testing.T) {
	spec := JobSpec{Workload: workloads.Terasort(), InputBytes: 8 << 30, NumReduces: 2, Mode: ModeALM, Seed: 21}
	spec.SFM = core.DefaultSFMOptions()
	spec.SFM.FCMCap = -1
	free := mustRun(t, spec, paperCluster(), nil)

	eng, job := newSteppingJob(t, spec, faults.StopNodeOfTaskAtReduceProgress(faults.Reduce, 0, 0.75))
	type commit struct {
		fl   *flushedOutput
		want []mr.Record
	}
	var commits []commit
	checkCommits := func() {
		t.Helper()
		for _, c := range commits {
			if !slices.Equal(c.fl.records, c.want) {
				t.Fatalf("committed flush %s changed after commit: %d records, committed with %d",
					c.fl.path, len(c.fl.records), len(c.want))
			}
		}
	}
	var last *flushedOutput
	commitsBeforeRestore, commitsAfterRestore := 0, 0
	for eng.Pending() && !job.Finished() {
		eng.Step()
		fl := job.hdfsFlushed[0]
		if fl == nil || fl == last {
			continue
		}
		last = fl
		if job.result.Counters["alg.restores.hdfs"] > 0 {
			commitsAfterRestore++
		} else {
			commitsBeforeRestore++
		}
		checkCommits()
		commits = append(commits, commit{fl: fl, want: slices.Clone(fl.records)})
	}
	checkCommits()

	res := job.Result()
	if !res.Completed {
		t.Fatalf("job failed: %s", res.FailReason)
	}
	if res.Counters["alg.restores.hdfs"] == 0 {
		t.Fatal("no attempt restored from the HDFS log")
	}
	if commitsBeforeRestore == 0 || commitsAfterRestore == 0 {
		t.Fatalf("flushes committed before/after the HDFS restore: %d/%d, want both > 0",
			commitsBeforeRestore, commitsAfterRestore)
	}
	if !slices.Equal(res.Output, free.Output) {
		t.Fatalf("recovered output (%d records) differs from the failure-free run (%d)",
			len(res.Output), len(free.Output))
	}
}

// TestALGShuffleSnapshotsCoverDirectSpills: with a small reduce heap every
// fetched partition exceeds a quarter of the shuffle buffer and streams
// straight to disk (deliver's direct spill), so the shuffle-stage
// snapshots list MOFs that never went through an in-memory merge. In
// testing builds each snapshot cross-checks the kept list against a full
// recompute (assertDiskMOFs); a reducer failed mid-shuffle must restore
// from its local log and produce the failure-free output.
func TestALGShuffleSnapshotsCoverDirectSpills(t *testing.T) {
	spec := JobSpec{Workload: workloads.Terasort(), InputBytes: 8 << 30, NumReduces: 2, Mode: ModeALG, Seed: 22}
	spec.Conf = mr.DefaultConfig()
	spec.Conf.ReduceMemoryMB = 256
	free := mustRun(t, spec, paperCluster(), nil)
	res := mustRun(t, spec, paperCluster(), faults.FailTaskAtProgress(faults.Reduce, 0, 0.25))
	if res.Counters["alg.restores.local"] == 0 {
		t.Fatal("no attempt restored from its local log")
	}
	if !slices.Equal(res.Output, free.Output) {
		t.Fatalf("recovered output (%d records) differs from the failure-free run (%d)",
			len(res.Output), len(free.Output))
	}
}

// TestALGShuffleSnapshotsAfterCrashWipe: reducer 0's node crashes
// mid-shuffle, which wipes its local store while the attempt keeps
// running until the AM notices. Its later snapshots must list only the
// segments the new store knows, as a full recompute does, so the kept
// list starts over when the store is replaced (assertDiskMOFs checks it
// in testing builds).
func TestALGShuffleSnapshotsAfterCrashWipe(t *testing.T) {
	spec := JobSpec{Workload: workloads.Terasort(), InputBytes: 8 << 30, NumReduces: 2, Mode: ModeALG, Seed: 22}
	free := mustRun(t, spec, paperCluster(), nil)
	plan := (&faults.Plan{}).Add(faults.Trigger{Kind: faults.AtReducePhaseProgress, Fraction: 0.1},
		faults.Action{Kind: faults.CrashNode, Selector: faults.NodeOfTask, Task: faults.Reduce, TaskIdx: 0})
	res := mustRun(t, spec, paperCluster(), plan)
	if res.ReduceAttemptFailures == 0 {
		t.Fatal("the crash failed no reduce attempt")
	}
	if !slices.Equal(res.Output, free.Output) {
		t.Fatalf("recovered output (%d records) differs from the failure-free run (%d)",
			len(res.Output), len(free.Output))
	}
}

package engine

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"alm/internal/core"
	"alm/internal/faults"
	"alm/internal/mr"
	"alm/internal/topology"
	"alm/internal/workloads"
)

// TestALGFlushedPrefixSurvivesMigration: reducer 0's node stops in the
// reduce stage after at least one committed HDFS flush. With no FCM
// budget the ALM recovery is a regular speculative attempt on another
// node, which restores from the HDFS log (restoreCommit), inherits the
// flushed prefix and commits more flushes of its own. Committed flushes
// share storage with the attempts' output, and the committed record is
// the one the local store holds, so after every later event each commit
// must still equal the deep copy taken when it landed. The recovered
// output must equal the failure-free run's.
func TestALGFlushedPrefixSurvivesMigration(t *testing.T) {
	spec := JobSpec{Workload: workloads.Terasort(), InputBytes: 8 << 30, NumReduces: 2, Mode: ModeALM, Seed: 21}
	spec.SFM = core.DefaultSFMOptions()
	spec.SFM.FCMCap = -1
	free := mustRun(t, spec, paperCluster(), nil)

	eng, job := newSteppingJob(t, spec, faults.StopNodeOfTaskAtReduceProgress(faults.Reduce, 0, 0.75))
	type commit struct {
		c    algCommit
		rec  *core.LogRecord
		want []mr.Record
	}
	var commits []commit
	checkCommits := func() {
		t.Helper()
		for _, c := range commits {
			if !reflect.DeepEqual(c.c.rec, c.rec) {
				t.Fatalf("committed record seq %d changed after commit:\n got %+v\nwant %+v", c.rec.Seq, c.c.rec, c.rec)
			}
			if !slices.Equal(c.c.records, c.want) {
				t.Fatalf("committed flush seq %d changed after commit: %d records, committed with %d",
					c.rec.Seq, len(c.c.records), len(c.want))
			}
		}
	}
	var last *core.LogRecord
	commitsBeforeRestore, commitsAfterRestore := 0, 0
	for eng.Pending() && !job.Finished() {
		eng.Step()
		c := job.algCommits[0]
		if c.rec == nil || c.rec == last {
			continue
		}
		last = c.rec
		if c.rec.FlushedOutputRecords != len(c.records) {
			t.Fatalf("commit seq %d: record says %d flushed records, the flush holds %d",
				c.rec.Seq, c.rec.FlushedOutputRecords, len(c.records))
		}
		if job.result.Counters["alg.restores.hdfs"] > 0 {
			commitsAfterRestore++
		} else {
			commitsBeforeRestore++
		}
		checkCommits()
		commits = append(commits, commit{c: c, rec: cloneRecord(c.rec), want: slices.Clone(c.records)})
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

// cloneRecord deep-copies a log record.
func cloneRecord(rec *core.LogRecord) *core.LogRecord {
	c := *rec
	c.SegmentPaths = slices.Clone(rec.SegmentPaths)
	c.Positions = slices.Clone(rec.Positions)
	return &c
}

// TestALGLocalReduceLogBeforeCommit: reducer 0 fails after its first
// reduce-stage log landed in the node-local store but before that
// snapshot's HDFS commit did. The commit's pipeline is stalled: the
// other datanodes of the reducer's rack, one of which holds the log's
// second replica, go dark when the write starts and heal only after the
// retry has begun. The same-node retry finds a reduce-stage local record
// and no committed one, so it restores the shuffled segments from the
// local log and redoes the reduce stage from zero.
func TestALGLocalReduceLogBeforeCommit(t *testing.T) {
	spec := JobSpec{Workload: workloads.Wordcount(), InputBytes: 4 << 30, NumReduces: 1, Mode: ModeALG, Seed: 15}
	free := mustRun(t, spec, paperCluster(), nil)

	eng, job := newSteppingJob(t, spec, nil)
	stalled, failed := false, false
	for eng.Pending() && !job.Finished() && !failed {
		eng.Step()
		a := job.am.task(faults.Reduce, 0).runningAttempt()
		if a == nil || a.node == topology.Invalid {
			continue
		}
		if !stalled && job.result.Counters["alg.hdfs.log.writes"] == 1 {
			topo := job.Cluster.Topo
			for _, n := range topo.RackNodes(topo.Node(a.node).Rack) {
				if n != a.node {
					job.apply(faults.Action{Kind: faults.StopNodeNetwork, Selector: faults.NodeExplicit,
						Node: int(n), HealAfter: 20 * time.Second})
				}
			}
			stalled = true
		}
		rec := job.local(a.node).algLog(0)
		if stalled && rec != nil && rec.Stage == core.StageReduce && job.algCommits[0].rec == nil {
			job.am.attemptFailed(a, "injected failure between local log and HDFS commit")
			failed = true
		}
	}
	if !failed {
		t.Fatal("no reduce-stage local log landed before its HDFS commit")
	}
	for eng.Pending() && !job.Finished() {
		eng.Step()
	}
	res := job.Result()
	if !res.Completed {
		t.Fatalf("job failed: %s", res.FailReason)
	}
	if got := res.Counters["alg.restores.local"]; got != 1 {
		t.Fatalf("alg.restores.local = %d, want 1", got)
	}
	if got := res.Counters["alg.restores.hdfs"]; got != 0 {
		t.Fatalf("alg.restores.hdfs = %d, want 0", got)
	}
	if !slices.Equal(res.Output, free.Output) {
		t.Fatalf("recovered output (%d records) differs from the failure-free run (%d)",
			len(res.Output), len(free.Output))
	}
}

// TestALGShuffleSnapshotsCoverDirectSpills: with a small reduce heap every
// fetched partition exceeds a quarter of the shuffle buffer and streams
// straight to disk (deliver's direct spill), so the shuffle-stage
// snapshots cover MOFs that never went through an in-memory merge. A
// reducer failed mid-shuffle must restore from its local log, holding
// exactly the maps of the direct-spilled segments, and produce the
// failure-free output.
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
// running until the AM notices. Its later snapshots count only the
// segments the new store knows, and the recovered output must equal the
// failure-free run's.
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

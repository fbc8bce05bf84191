package engine

import (
	"testing"
	"time"

	"alm/internal/faults"
	"alm/internal/trace"
	"alm/internal/workloads"
)

// remoteSpec is smallSpec with the remote shuffle tier enabled.
func remoteSpec(w *workloads.Workload, mode Mode, reduces int) JobSpec {
	s := smallSpec(w, mode, reduces)
	s.Shuffle.Remote = true
	return s
}

func TestRemoteShuffleSmoke(t *testing.T) {
	res, err := Run(remoteSpec(workloads.Terasort(), ModeYARN, 4), smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("job failed: %s\n%s", res.FailReason, res.Trace.Dump())
	}
	if res.Trace.Count(trace.KindTierCommitted) == 0 {
		t.Fatal("no tier commits recorded")
	}
	if res.Counters["tier.push.bytes"] <= 0 {
		t.Fatalf("tier.push.bytes = %d, want > 0", res.Counters["tier.push.bytes"])
	}
}

// TestRemoteShuffleOutputMatchesStock checks the tier changes the data
// path, not the data: stock and remote runs must reduce identical
// records.
func TestRemoteShuffleOutputMatchesStock(t *testing.T) {
	stock, err := Run(smallSpec(workloads.Terasort(), ModeYARN, 4), smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	remote, err := Run(remoteSpec(workloads.Terasort(), ModeYARN, 4), smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	if !stock.Completed || !remote.Completed {
		t.Fatalf("completed: stock=%v remote=%v", stock.Completed, remote.Completed)
	}
	if len(stock.Output) != len(remote.Output) {
		t.Fatalf("output size: stock=%d remote=%d", len(stock.Output), len(remote.Output))
	}
	for i := range stock.Output {
		if stock.Output[i] != remote.Output[i] {
			t.Fatalf("output record %d differs: stock=%v remote=%v", i, stock.Output[i], remote.Output[i])
		}
	}
}

// TestRemoteShuffleMapNodeCrashNoRecompute is the tier's headline
// property: crashing a node that hosts only MOFs (after they were pushed
// to the tier) must cause zero map recomputation and zero additional
// reduce failures — the exact amplification the paper measures in stock
// Hadoop.
func TestRemoteShuffleMapNodeCrashNoRecompute(t *testing.T) {
	plan := faults.CrashMOFNodeAtJobProgress(0.55)
	res, err := Run(remoteSpec(workloads.Terasort(), ModeYARN, 4), smallCluster(), WithPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("job failed: %s\n%s", res.FailReason, res.Trace.Dump())
	}
	if n := res.Trace.Count(trace.KindMapRescheduled); n != 0 {
		t.Errorf("map reschedules = %d, want 0 (MOFs live in the tier)\n%s", n, res.Trace.Dump())
	}
	if res.AdditionalReduceFailures != 0 {
		t.Errorf("additional reduce failures = %d, want 0", res.AdditionalReduceFailures)
	}
}

// TestRemoteShuffleTierNodeLossRecovery kills one tier service mid-run:
// the job must finish, lost segments must be re-replicated or re-pushed,
// and no repair obligation may remain open.
func TestRemoteShuffleTierNodeLossRecovery(t *testing.T) {
	plan := faults.CrashTierNodeAtTime(40*time.Second, 0, 0)
	var h Handles
	res, err := Run(remoteSpec(workloads.Terasort(), ModeYARN, 4), smallCluster(),
		WithPlan(plan), WithHandles(&h))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("job failed: %s\n%s", res.FailReason, res.Trace.Dump())
	}
	if res.Trace.Count(trace.KindTierNodeLost) == 0 {
		t.Fatal("tier-node crash never fired")
	}
	if n := res.Trace.Count(trace.KindTierReplicated) + res.Trace.Count(trace.KindTierRepush); n == 0 {
		t.Errorf("no re-replication or re-push after tier-node loss\n%s", res.Trace.Dump())
	}
	if pr := h.Job.Tier().PendingRecovery(); pr != 0 {
		t.Errorf("pending tier recoveries at job end = %d, want 0", pr)
	}
}

// TestRemoteShuffleBackpressure squeezes the tier's ingest capacity so
// pushes queue: the stall histogram and wait advisories must record it.
func TestRemoteShuffleBackpressure(t *testing.T) {
	s := remoteSpec(workloads.Terasort(), ModeYARN, 4)
	s.Shuffle.TierNodes = 2
	s.Shuffle.MaxInflight = 1
	s.Shuffle.MaxQueue = 1
	res, err := Run(s, smallCluster(), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("job failed: %s\n%s", res.FailReason, res.Trace.Dump())
	}
	if res.Trace.Count(trace.KindTierBackpressure) == 0 {
		t.Fatal("no backpressure events despite 1-slot, 1-deep ingest")
	}
	if res.WaitAdvisories == 0 {
		t.Error("backpressure produced no wait advisories")
	}
}

// TestRemoteShuffleDeterminism runs the fig3-style remote workload twice
// (with a tier fault in play) and requires byte-identical results.
func TestRemoteShuffleDeterminism(t *testing.T) {
	run := func() Result {
		plan := faults.CrashTierNodeAtTime(40*time.Second, 1, 90*time.Second)
		res, err := Run(remoteSpec(workloads.Terasort(), ModeALM, 4), smallCluster(), WithPlan(plan))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Duration != b.Duration {
		t.Fatalf("durations differ: %v vs %v", a.Duration, b.Duration)
	}
	if a.Events.Processed != b.Events.Processed {
		t.Fatalf("event counts differ: %d vs %d", a.Events.Processed, b.Events.Processed)
	}
	da, db := a.Trace.Dump(), b.Trace.Dump()
	if da != db {
		t.Fatal("traces differ between identical seeded runs")
	}
	if len(a.Output) != len(b.Output) {
		t.Fatalf("output sizes differ: %d vs %d", len(a.Output), len(b.Output))
	}
}

// TestShufflePlanValidation rejects tier faults without the tier and
// out-of-range targets.
func TestShufflePlanValidation(t *testing.T) {
	plan := faults.CrashTierNodeAtTime(time.Second, 0, 0)
	if _, err := Run(smallSpec(workloads.Terasort(), ModeYARN, 4), smallCluster(), WithPlan(plan)); err == nil {
		t.Error("tier fault accepted without Shuffle.Remote")
	}
	bad := faults.CrashTierNodeAtTime(time.Second, 99, 0)
	if _, err := Run(remoteSpec(workloads.Terasort(), ModeYARN, 4), smallCluster(), WithPlan(bad)); err == nil {
		t.Error("out-of-range tier ordinal accepted")
	}
	if _, err := Run(remoteSpec(workloads.Terasort(), ModeYARN, 4), smallCluster(),
		WithPlan(faults.HotPartitionAtTime(time.Second, 99, 0.5, 0))); err == nil {
		t.Error("out-of-range hot partition accepted")
	}
	issAndTier := remoteSpec(workloads.Terasort(), ModeYARN, 4)
	issAndTier.ISS.Enabled = true
	if _, err := Run(issAndTier, smallCluster()); err == nil {
		t.Error("ISS+Shuffle.Remote accepted; they are mutually exclusive")
	}
}

// TestRemoteShuffleIndexUnderTierFaults drives every kind of shuffle-tier
// notification through a running shuffle: a tier-service crash and its
// restore, a hot partition and its heal, and a network partition of a
// tier node that heals. Invariants are on in tests, so after every
// notification appMaster.tierChanged checks each shuffling reducer's
// host index against a full scan: a change its scope missed fails at
// the notification that missed it.
func TestRemoteShuffleIndexUnderTierFaults(t *testing.T) {
	// Reducers shuffle from about 29 s to 39 s, so every fault below
	// lands mid-shuffle; the crash's re-replications then land on
	// committed maps, the scoped notifications. Node 7 hosts tier
	// ordinal 1.
	plan := faults.CrashTierNodeAtTime(30*time.Second, 0, 4*time.Second)
	plan.Add(faults.Trigger{Kind: faults.AtTime, Time: 31 * time.Second},
		faults.Action{Kind: faults.HotPartition, TaskIdx: 1, Factor: 0.5, HealAfter: 4 * time.Second})
	plan.Add(faults.Trigger{Kind: faults.AtTime, Time: 32 * time.Second},
		faults.Action{Kind: faults.PartitionNode, Selector: faults.NodeExplicit, Node: 7, HealAfter: 3 * time.Second})
	var h Handles
	res, err := Run(remoteSpec(workloads.Terasort(), ModeALM, 8), smallCluster(), WithPlan(plan), WithHandles(&h))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("job failed: %s\n%s", res.FailReason, res.Trace.Dump())
	}
	for _, k := range []trace.Kind{trace.KindTierNodeLost, trace.KindTierHotPartition, trace.KindNodeHealed} {
		if res.Trace.Count(k) == 0 {
			t.Errorf("no %s event: the fault plan missed the shuffle\n%s", k, res.Trace.Dump())
		}
	}
	if pr := h.Job.Tier().PendingRecovery(); pr != 0 {
		t.Errorf("pending tier recoveries at job end = %d, want 0", pr)
	}
}

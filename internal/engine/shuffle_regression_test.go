package engine

import (
	"testing"

	"alm/internal/core"
	"alm/internal/fairshare"
	"alm/internal/faults"
	"alm/internal/merge"
	"alm/internal/mr"
	"alm/internal/sim"
	"alm/internal/topology"
)

// newSteppingJob builds a job on the paper testbed but keeps control of
// the engine, so tests can single-step to interesting internal states.
func newSteppingJob(t *testing.T, spec JobSpec, plan *faults.Plan) (*sim.Engine, *Job) {
	t.Helper()
	specD, err := spec.Defaulted()
	if err != nil {
		t.Fatal(err)
	}
	eng, jobs, err := assemble(DefaultClusterSpec(), specD.Seed, []JobSpec{specD}, []*faults.Plan{plan})
	if err != nil {
		t.Fatal(err)
	}
	if err := jobs[0].Start(func() { eng.Stop() }); err != nil {
		t.Fatal(err)
	}
	return eng, jobs[0]
}

// stepUntilExec fires events until some live shuffling reduceExec
// satisfies cond, and returns it.
func stepUntilExec(t *testing.T, eng *sim.Engine, job *Job, cond func(*reduceExec) bool) *reduceExec {
	t.Helper()
	for eng.Pending() && !job.Finished() {
		eng.Step()
		for _, ex := range job.am.reduceExecs {
			r, ok := ex.(*reduceExec)
			if ok && !r.dead && r.stage == core.StageShuffle && cond(r) {
				return r
			}
		}
	}
	t.Fatal("job finished before reaching the requested state")
	return nil
}

// heldLogical is the logical bytes of the shuffled segments r holds: in
// the shuffle buffer and spilled to disk. A segment on its way to disk
// (a direct spill or an in-memory merge) is in neither, so callers check
// that none is in flight.
func heldLogical(r *reduceExec) int64 {
	return r.inMemBytes + merge.TotalLogicalBytes(r.onDisk)
}

// A fetch session that raced with MOF regeneration must not credit the
// skipped segments: the regenerated maps still need fetching, so the
// session's bytes must not count as shuffle progress, and a session that
// delivered nothing must not reset the stall clock or the host's strike
// count (resetting them used to let a stalled reducer dodge its
// too-many-fetch-failures verdict indefinitely).
func TestSessionDoneSkipsRegeneratedMOFs(t *testing.T) {
	eng, job := newSteppingJob(t, wordcountSpec(ModeYARN), nil)
	r := stepUntilExec(t, eng, job, func(r *reduceExec) bool {
		return r.hostIdx != nil && r.copiedCount > 0 && r.copiedCount < len(r.copied) &&
			!r.hostIdx.pending.empty()
	})

	// Pick any host currently serving pending maps.
	host := topology.Invalid
	for n := range job.Cluster.Topo.NumNodes() {
		if len(r.hostIdx.appendOn(nil, n)) > 0 {
			host = topology.NodeID(n)
			break
		}
	}
	if host == topology.Invalid {
		t.Fatal("no host serves pending maps")
	}
	sess := r.newSession(host)
	sess.batch = append(sess.batch[:0], r.pendingOn(host)...)
	if len(sess.batch) == 0 {
		t.Fatal("pendingOn returned nothing for an indexed host")
	}

	preHeld, preDiskOps := heldLogical(r), r.pendingDiskOps
	preCopied := r.copiedCount
	preSuccess := r.lastFetchSuccess
	*r.strikes(host) = 2

	// The session completes, but every MOF in it regenerated mid-transfer.
	for _, m := range sess.batch {
		sess.gens = append(sess.gens, job.am.mofs[m].gen-1)
	}
	r.sessionDone(sess)

	if r.pendingDiskOps != preDiskOps {
		t.Fatalf("stale session started %d disk ops", r.pendingDiskOps-preDiskOps)
	}
	if r.copiedCount != preCopied {
		t.Errorf("stale session delivered %d maps, want 0", r.copiedCount-preCopied)
	}
	if held := heldLogical(r); held != preHeld {
		t.Errorf("stale session credited %d logical bytes, want 0", held-preHeld)
	}
	if r.lastFetchSuccess != preSuccess {
		t.Error("stale session reset the fetch-stall clock")
	}
	if *r.strikes(host) != 2 {
		t.Errorf("stale session reset host strike count to %d, want 2", *r.strikes(host))
	}

	// The same session with matching generations must deliver and credit.
	sess2 := r.newSession(host)
	sess2.batch = append(sess2.batch[:0], r.pendingOn(host)...)
	if len(sess2.batch) == 0 {
		t.Fatal("maps vanished between sessions")
	}
	nBatch2 := len(sess2.batch)
	var want int64
	for _, m := range sess2.batch {
		sess2.gens = append(sess2.gens, job.am.mofs[m].gen)
		want += job.am.mofs[m].parts[r.t.idx].LogicalBytes
	}
	r.sessionDone(sess2)
	if r.pendingDiskOps != preDiskOps {
		t.Fatalf("fresh session started %d disk ops: its bytes left the shuffle buffer", r.pendingDiskOps-preDiskOps)
	}
	if r.copiedCount != preCopied+nBatch2 {
		t.Errorf("fresh session delivered %d maps, want %d", r.copiedCount-preCopied, nBatch2)
	}
	if got := heldLogical(r) - preHeld; got != want {
		t.Errorf("fresh session credited %d bytes, want %d", got, want)
	}
	if *r.strikes(host) != 0 {
		t.Errorf("fresh session left strike count at %d, want 0", *r.strikes(host))
	}
}

// progress() must clamp each stage fraction: mergeNeeded is estimated
// before the first pass, and deep merges push mergeDone past it.
func TestProgressClampsMergeOverrun(t *testing.T) {
	r := &reduceExec{
		stage:       core.StageMerge,
		copied:      make([]bool, 4),
		copiedCount: 4,
		mergeNeeded: 100,
		mergeDone:   350,
	}
	if got, want := r.progress(), 2.0/3.0; got != want {
		t.Fatalf("progress with merge overrun = %v, want %v (shuffle=1, merge clamped to 1, reduce=0)", got, want)
	}
}

// End-to-end clamp check: a tiny shuffle buffer and io.sort.factor 2
// force well over 2*factor on-disk runs, so the polyphase merge runs deep
// enough for mergeDone to exceed the mergeNeeded estimate. Reported
// progress must stay within [0,1] throughout.
func TestProgressBoundedUnderDeepMerge(t *testing.T) {
	spec := wordcountSpec(ModeYARN)
	spec.Conf = mr.DefaultConfig()
	spec.Conf.IOSortFactor = 2
	spec.Conf.ReduceMemoryMB = 256
	eng, job := newSteppingJob(t, spec, nil)

	sawOverrun := false
	maxProgress := 0.0
	runs := 0
	for eng.Pending() && !job.Finished() {
		eng.Step()
		for _, ex := range job.am.reduceExecs {
			r, ok := ex.(*reduceExec)
			if !ok || r.dead {
				continue
			}
			if p := r.progress(); p > maxProgress {
				maxProgress = p
			}
			if len(r.onDisk) > runs {
				runs = len(r.onDisk)
			}
			if r.mergeNeeded > 0 && r.mergeDone > r.mergeNeeded {
				sawOverrun = true
			}
		}
	}
	if !job.Finished() {
		t.Fatal("job did not finish")
	}
	if runs <= 2*spec.Conf.IOSortFactor {
		t.Fatalf("scenario too shallow: peak on-disk runs %d, want > %d", runs, 2*spec.Conf.IOSortFactor)
	}
	if !sawOverrun {
		t.Fatal("mergeDone never exceeded the mergeNeeded estimate; clamp not exercised")
	}
	if maxProgress > 1 {
		t.Fatalf("reported progress reached %v, must stay <= 1", maxProgress)
	}
	t.Logf("peak on-disk runs=%d maxProgress=%v", runs, maxProgress)
}

// Killing a reducer with spills in flight cancels every disk op, so no
// completion ever runs into the dead exec: its pending-op count and
// on-disk runs stay as the kill left them while the job recovers.
func TestKillCancelsInFlightDiskOps(t *testing.T) {
	spec := wordcountSpec(ModeYARN)
	spec.Conf = mr.DefaultConfig()
	spec.Conf.ReduceMemoryMB = 512
	eng, job := newSteppingJob(t, spec, nil)
	r := stepUntilExec(t, eng, job, func(r *reduceExec) bool { return r.pendingDiskOps > 0 })
	ops := append([]fairshare.Flow(nil), r.diskOps...)
	if len(ops) == 0 {
		t.Fatal("checked build tracks no in-flight disk op")
	}
	pending, runs := r.pendingDiskOps, len(r.onDisk)

	r.kill()
	for _, f := range ops {
		if !f.Ended() {
			t.Fatalf("disk op %s still running after kill", f.Name())
		}
	}
	for eng.Pending() && !job.Finished() {
		eng.Step()
	}
	if !job.result.Completed {
		t.Fatalf("job did not recover from the killed reducer: %s", job.result.FailReason)
	}
	if r.pendingDiskOps != pending || len(r.onDisk) != runs {
		t.Fatalf("a disk op landed on the dead exec: pendingDiskOps %d -> %d, on-disk runs %d -> %d",
			pending, r.pendingDiskOps, runs, len(r.onDisk))
	}
}

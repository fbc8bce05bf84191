package engine

import "testing"

// Every simulation the engine test binary runs — smoke, integration,
// failure-injection, robustness — executes with the expensive internal
// consistency checks armed: the reducer host index is cross-checked
// against a full scan on every pickHost, and disk-op accounting is
// asserted on every checkMergeReady, and the shuffle tier's coverage
// counts are compared with a walk of its transfers.
func init() { EnableInvariantChecks() }

// TestKillMidCPULeavesMapQuiet kills a map attempt while its CPU timer
// is pending, through the AM's failure path, so assertQuiet runs on a
// kill that has a timer to stop. The reduce and FCM kills reach it
// with their heartbeat timers armed in the failure tests.
func TestKillMidCPULeavesMapQuiet(t *testing.T) {
	eng, job := newSteppingJob(t, wordcountSpec(ModeYARN), nil)
	var victim *mapExec
	for victim == nil && eng.Pending() && !job.Finished() {
		eng.Step()
		for _, ts := range job.am.maps {
			for _, a := range ts.attempts {
				m, ok := a.exec.(*mapExec)
				if ok && !m.dead && len(m.flows) > 0 && m.flows[0].Ended() && m.timers[len(m.timers)-1].Active() {
					victim = m
				}
			}
		}
	}
	if victim == nil {
		t.Fatal("no map attempt reached its CPU stage")
	}
	job.am.attemptFailed(victim.a, "test: kill mid-CPU")
	for _, tm := range victim.timers {
		if tm.Active() {
			t.Fatalf("%s: timer still armed after kill", victim.a.id)
		}
	}
	for eng.Pending() && !job.Finished() {
		eng.Step()
	}
	if !job.result.Completed {
		t.Fatalf("job did not recover from the killed map: %s", job.result.FailReason)
	}
}

// A landed session's watch is freed at once, but its pending tick stays
// tracked, so a kill stops it where the watch used to be stopped with
// it. The test runs a 10 GB terasort with four reducers, fails reducer
// 0's attempt once it has copied four maps, while the ticks of its
// landed sessions are still pending, and steps the job to its end: the
// run's processed, stopped and max-queue counts are the ones the
// simulator had while each watch held its tick until it fired (pinned
// from that form). A kill that left the detached ticks armed would stop
// fewer events and fire more.
func TestKillStopsDetachedTicks(t *testing.T) {
	spec := terasortSpec(ModeYARN)
	spec.InputBytes = 10 << 30
	spec.NumReduces = 4
	eng, job := newSteppingJob(t, spec, nil)
	r := stepUntilExec(t, eng, job, func(r *reduceExec) bool {
		return r.t.idx == 0 && r.copiedCount >= 4
	})
	pending := 0
	for i := range r.detachedLen {
		if r.detached[(r.detachedHead+i)%len(r.detached)].tm.Active() {
			pending++
		}
	}
	if pending == 0 {
		t.Fatal("reducer 0 has no detached tick pending at the kill")
	}
	job.am.attemptFailed(r.a, "test: kill with landed sessions")
	for eng.Pending() && !job.Finished() {
		eng.Step()
	}
	if !job.result.Completed {
		t.Fatalf("job did not recover from the killed reducer: %s", job.result.FailReason)
	}
	got := [3]uint64{eng.Processed(), eng.StoppedEvents(), uint64(eng.MaxQueueLen())}
	if want := [3]uint64{2083, 1053, 162}; got != want {
		t.Fatalf("with %d detached ticks pending at the kill: processed, stopped, max queue = %v, want %v",
			pending, got, want)
	}
}

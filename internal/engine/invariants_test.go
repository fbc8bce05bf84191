package engine

import "testing"

// Every simulation the engine test binary runs — smoke, integration,
// failure-injection, robustness — executes with the expensive internal
// consistency checks armed: the reducer host index is cross-checked
// against a full scan on every pickHost, and disk-op accounting is
// asserted on every checkMergeReady.
func init() { invariantsEnabled = true }

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
				if ok && !m.dead && len(m.flows) > 0 && m.flows[0].Done() && m.timers[len(m.timers)-1].Active() {
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

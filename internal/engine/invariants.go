package engine

import (
	"fmt"
	"slices"

	"alm/internal/sim"
)

// invariantsEnabled turns on internal consistency checks that are too
// expensive for production runs: the reducer host-index cross-check
// against a full scan (checkHostIndex), the disk-op accounting
// assertion (assertDiskOps, which is also why diskOps is kept), and the
// checks that an attempt tracks each timer once (assertUntracked) and that a killed
// attempt leaves nothing armed (assertQuiet). The engine's own test
// binary flips it on in an init (see invariants_test.go), so every
// simulation the test suite runs — including failure-injection
// scenarios — executes with the checks armed.
var invariantsEnabled = false

// EnableInvariantChecks arms the internal consistency checks for
// non-test callers. The chaos harness (internal/chaos, almrun -chaos)
// turns them on so randomized schedules run with the same cross-checks
// the unit suite gets; the checks panic on violation, which the harness
// converts into reported invariant failures. There is deliberately no
// way to turn them back off — a process that wants checked runs wants
// all of them checked.
func EnableInvariantChecks() { invariantsEnabled = true }

// assertLaunchTimes verifies (checked builds only) that the speculation
// bookkeeping — launchedAt/launched fields on the attempts — marks
// running attempts exclusively. When the bookkeeping lived in a map,
// entries of completed and killed attempts accumulated for the life of
// the AM; the field form can't leak memory, but a stale flag would still
// feed retired attempts into the speculation scan.
func (am *appMaster) assertLaunchTimes() {
	if !invariantsEnabled {
		return
	}
	// Walk attempts in deterministic task order so the first violation
	// reported is stable across runs.
	for _, lists := range [][]*taskState{am.maps, am.reduces} {
		for _, t := range lists {
			for _, a := range t.attempts {
				if a.state == attemptRunning {
					if !a.launched {
						panic(fmt.Sprintf("engine: running attempt %s has no launch record", a.id))
					}
					continue
				}
				if a.launched {
					panic(fmt.Sprintf("engine: launch record for %s in state %d (retired attempt not pruned)", a.id, a.state))
				}
			}
		}
	}
}

// assertDiskOps verifies (testing builds only) that pendingDiskOps never
// undercounts the disk-op flows still in flight. Equality cannot be
// asserted at every instant — a flow that just finished keeps its counter
// slot until its queued completion callback runs — but the gate that
// matters is one-sided: the final merge must never start while a spill is
// still on the disk. With pendingDiskOps == 0 this implies no active
// disk-op flows at all.
func (r *reduceExec) assertDiskOps() {
	if !invariantsEnabled {
		return
	}
	if r.pendingDiskOps < 0 {
		panic(fmt.Sprintf("engine: %s pendingDiskOps went negative (%d)", r.a.id, r.pendingDiskOps))
	}
	active := 0
	for _, f := range r.diskOps {
		if !f.Ended() {
			active++
		}
	}
	if active > r.pendingDiskOps {
		panic(fmt.Sprintf("engine: %s has %d in-flight disk ops but pendingDiskOps=%d",
			r.a.id, active, r.pendingDiskOps))
	}
}

// assertUntracked verifies (checked builds only) that tm is in neither
// of the exec's timer lists before it enters one: a one-shot timer is
// listed once, when it is scheduled, and a recurring one is held once,
// when it is first armed, and never listed. A timer tracked twice makes
// the lists grow with every re-arm instead of with the live set.
func (r *attemptRun) assertUntracked(tm *sim.Timer) {
	if !invariantsEnabled {
		return
	}
	tracked := slices.Contains(r.timers, tm)
	for h := r.held; h != nil && !tracked; h = h.next {
		tracked = h.tm == tm
	}
	if tracked {
		panic(fmt.Sprintf("engine: attempt %s tracks a timer twice", r.a.id))
	}
}

// assertQuiet verifies (checked builds only) that a stopped attempt left
// nothing armed: no pending timer, listed or held, and no running flow.
// A timer that outlives kill fires into a dead exec and keeps the event
// queue busy; a flow keeps taking bandwidth for an attempt that no
// longer exists.
func (r *attemptRun) assertQuiet() {
	if !invariantsEnabled {
		return
	}
	armed := slices.ContainsFunc(r.timers, (*sim.Timer).Active)
	for h := r.held; h != nil && !armed; h = h.next {
		armed = h.tm.Active()
	}
	if armed {
		panic(fmt.Sprintf("engine: killed attempt %s left a timer armed", r.a.id))
	}
	for _, f := range r.flows {
		if !f.Ended() {
			panic(fmt.Sprintf("engine: killed attempt %s left flow %s running", r.a.id, f.Name()))
		}
	}
}

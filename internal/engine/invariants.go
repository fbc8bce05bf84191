package engine

import (
	"fmt"
	"slices"
	"sort"

	"alm/internal/fairshare"
	"alm/internal/sim"
)

// invariantsEnabled turns on internal consistency checks that are too
// expensive for production runs: the reducer host-index cross-check
// against a full scan (checkHostIndex), the disk-op accounting
// assertion (assertDiskOps) and the on-disk MOF list cross-check
// (assertDiskMOFs) and the check that a killed attempt leaves nothing
// armed (assertQuiet). The engine's own test binary flips it on in
// an init (see invariants_test.go), so every simulation the test suite
// runs — including failure-injection scenarios — executes with the
// checks armed.
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
		if !f.Done() && !f.Canceled() {
			active++
		}
	}
	if active > r.pendingDiskOps {
		panic(fmt.Sprintf("engine: %s has %d in-flight disk ops but pendingDiskOps=%d",
			r.a.id, active, r.pendingDiskOps))
	}
}

// assertDiskMOFs verifies (testing builds only) that the incrementally
// kept diskMOFs equals a full recompute: every on-disk segment's map IDs,
// sorted. FetchedMOFIDs calls it after merging the pending IDs in, so a
// segment that lands without being recorded, or a list kept across a
// replaced onDisk or node-local store, panics at the next snapshot.
func (r *reduceExec) assertDiskMOFs() {
	if !invariantsEnabled {
		return
	}
	want := r.appendDiskMOFs(nil)
	sort.Ints(want)
	if !slices.Equal(r.diskMOFs, want) {
		panic(fmt.Sprintf("engine: %s on-disk MOF list drifted: kept %v, recomputed %v",
			r.a.id, r.diskMOFs, want))
	}
}

// assertQuiet verifies (checked builds only) that a killed attempt left
// nothing armed: no pending timer, whether it is in the exec's timer
// list or held in one of its fields, and no running flow. A timer that
// outlives kill fires into a dead exec and keeps the event queue busy;
// a flow keeps taking bandwidth for an attempt that no longer exists.
func assertQuiet(id string, timers []*sim.Timer, flows []*fairshare.Flow, held ...*sim.Timer) {
	if !invariantsEnabled {
		return
	}
	for _, ts := range [][]*sim.Timer{timers, held} {
		for _, tm := range ts {
			if tm.Active() {
				panic(fmt.Sprintf("engine: killed attempt %s left a timer armed", id))
			}
		}
	}
	for _, f := range flows {
		if !f.Done() && !f.Canceled() {
			panic(fmt.Sprintf("engine: killed attempt %s left flow %s running", id, f.Name()))
		}
	}
}

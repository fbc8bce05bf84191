package engine

import (
	"fmt"

	"alm/internal/core"
	"alm/internal/faults"
	"alm/internal/mr"
	"alm/internal/sim"
	"alm/internal/topology"
	"alm/internal/trace"
)

// The AppMaster is the policies' window into the job.
var (
	_ PolicyContext      = (*appMaster)(nil)
	_ core.SchedulerView = (*appMaster)(nil)
)

// buildPolicy resolves the spec's policy name (validated and defaulted by
// JobSpec.Defaulted; the Mode fallback covers specs built by hand).
func buildPolicy(spec JobSpec) RecoveryPolicy {
	name := spec.Policy
	if name == "" {
		name = spec.Mode.String()
	}
	f, ok := policyRegistry[name]
	if !ok {
		panic(fmt.Sprintf("engine: unknown recovery policy %q (known: %v)", name, PolicyNames()))
	}
	return f.build(&spec)
}

// ---- queries ----

func (am *appMaster) Now() sim.Time    { return am.job.Eng.Now() }
func (am *appMaster) Conf() *mr.Config { return &am.conf }

func (am *appMaster) NumNodes() int                              { return am.job.Cluster.Topo.NumNodes() }
func (am *appMaster) NodeUsable(n topology.NodeID) bool          { return am.job.Cluster.NodeUsable(n) }
func (am *appMaster) NodeReachable(n topology.NodeID) bool       { return am.job.Cluster.NodeReachable(n) }
func (am *appMaster) NodeFailures(n topology.NodeID) int         { return am.nodeFailures[n] }
func (am *appMaster) LastNodeFailure(n topology.NodeID) sim.Time { return am.lastNodeFailure[n] }

func (am *appMaster) NodeName(n topology.NodeID) string {
	if n == topology.Invalid {
		return "-"
	}
	return am.job.Cluster.Topo.Node(n).Name
}

func (am *appMaster) NumTasks(typ faults.TaskType) int {
	if typ == faults.Map {
		return len(am.maps)
	}
	return len(am.reduces)
}

func (am *appMaster) TaskDone(typ faults.TaskType, idx int) bool { return am.task(typ, idx).done }

func (am *appMaster) LiveAttempts(typ faults.TaskType, idx int) int {
	return am.task(typ, idx).liveAttempts()
}

func (am *appMaster) TotalAttempts(typ faults.TaskType, idx int) int {
	return len(am.task(typ, idx).attempts)
}

func (am *appMaster) RunningAttemptInfo(typ faults.TaskType, idx int) (AttemptInfo, bool) {
	a := am.task(typ, idx).runningAttempt()
	if a == nil {
		return AttemptInfo{}, false
	}
	return AttemptInfo{
		ID:       a.id,
		Node:     a.node,
		NodeName: a.nodeName(am.job),
		Progress: a.progress,
		Launched: a.launchedAt,
	}, true
}

func (am *appMaster) MOFAvailable(mapIdx int) bool             { return am.mofAvailable(mapIdx) }
func (am *appMaster) MapsWithMOFOn(node topology.NodeID) []int { return am.mapsWithMOFOn(node) }
func (am *appMaster) RerunScheduled(mapIdx int) bool           { return am.rerunScheduled[mapIdx] }
func (am *appMaster) JobDone() bool                            { return am.jobDone }

func (am *appMaster) SpeculativeLaunched() int { return am.speculativeLaunched }
func (am *appMaster) SpeculativeCap() int      { return am.speculativeCap() }

// ---- actions ----

func (am *appMaster) RecoverMap(idx int, highPrio bool, avoid topology.NodeID) {
	t := am.maps[idx]
	if t.done && !t.rerunInFlight {
		return // output already available from an earlier attempt
	}
	if t.done {
		t.rerunInFlight = true
	}
	am.launchMap(t, highPrio, avoid)
}

func (am *appMaster) ScheduleMapRerun(idx int, highPrio bool, avoid topology.NodeID, reason string) {
	am.rerunScheduled[idx] = true
	mt := am.maps[idx]
	if mt.done {
		mt.rerunInFlight = true
	}
	am.job.Tracer.Emit(am.job.Eng.Now(), trace.KindMapRescheduled, attemptID(faults.Map, idx, 0), "", reason)
	am.launchMap(mt, highPrio, avoid)
}

func (am *appMaster) LaunchReduce(idx int, opt ReduceLaunch) {
	am.launchReduce(am.reduces[idx], reduceLaunchOpts{
		fcm: opt.FCM, localResume: opt.LocalResume, prefer: opt.Prefer, avoid: opt.Avoid,
	})
}

func (am *appMaster) SpeculativeBackup(typ faults.TaskType, idx int, avoid topology.NodeID) {
	am.speculativeLaunched++
	if typ == faults.Map {
		am.launchMap(am.maps[idx], false, avoid)
	} else {
		am.launchReduce(am.reduces[idx], reduceLaunchOpts{prefer: topology.Invalid, avoid: avoid})
	}
}

func (am *appMaster) IssueWaitAdvisory(reduceIdx int, host topology.NodeID, lostMaps int) {
	am.job.result.WaitAdvisories++
	am.job.result.Counters.Add("sfm.wait_advisories", 1)
	am.job.Tracer.Emit(am.job.Eng.Now(), trace.KindWaitAdvisory,
		attemptID(faults.Reduce, reduceIdx, 0), am.job.Cluster.Topo.Node(host).Name,
		fmt.Sprintf("wait for regeneration of %d maps", lostMaps))
}

func (am *appMaster) FailAttemptsOnNode(node topology.NodeID, batchReduces bool) []int {
	var failedReduces []int
	for _, lists := range [][]*taskState{am.maps, am.reduces} {
		for _, t := range lists {
			for _, a := range t.attempts {
				if a.state == attemptRunning && a.node == node {
					if batchReduces && a.typ == faults.Reduce {
						failedReduces = append(failedReduces, t.idx)
						am.markFailedNoRecover(a, "node lost")
					} else {
						am.attemptFailed(a, "node lost")
					}
					if am.jobDone {
						return failedReduces
					}
				}
			}
		}
	}
	return failedReduces
}

// ---- observability ----

func (am *appMaster) Emit(kind trace.Kind, task, node, detail string) {
	am.job.Tracer.Emit(am.job.Eng.Now(), kind, task, node, detail)
}

func (am *appMaster) Counter(name string, delta int64) {
	am.job.result.Counters.Add(name, delta)
}

func (am *appMaster) Decide(d PolicyDecision) {
	am.job.result.Decisions = append(am.job.result.Decisions, d)
	am.job.met.reg.Counter("alm_policy_decisions_total", "event", string(d.Event)).Inc()
	if am.job.Spec.DecisionTrace {
		am.job.Tracer.Emit(d.At, trace.KindPolicyDecision, d.Subject, "", d.Detail())
	}
}

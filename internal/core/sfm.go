package core

import (
	"fmt"

	"alm/internal/topology"
)

// LimitLocal bounds attempts of a reduce on its original node (Algorithm
// 1 line 10); it counts the failed original too, so 2 means "allow one
// local relaunch". MaxRunningAttempts is the speculation bound (line 14):
// the paper spawns a speculative task while running attempts <= 2.
const LimitLocal, MaxRunningAttempts = 2, 2

// SFMOptions are the tunables of Speculative Fast Migration. The
// booleans exist for ablation studies; the paper's system has all of them
// enabled.
type SFMOptions struct {
	// FCMCap bounds FCM-mode tasks per job (Algorithm 1 line 16; paper
	// default 10).
	FCMCap int
	// ProactiveMapRegen re-executes failed/lost maps at high priority
	// (Algorithm 1 lines 5-7). Disabling it reverts to fetch-failure-
	// driven map re-execution.
	ProactiveMapRegen bool
	// SpeculativeRecovery spawns the speculative recovery ReduceTask
	// (lines 14-21). Disabling leaves only local relaunch.
	SpeculativeRecovery bool
	// WaitAdvisory makes healthy reducers wait for MOF regeneration
	// instead of striking out (Section V-C: "requests ReduceTask to wait
	// until the lost map output files are regenerated").
	WaitAdvisory bool
}

// DefaultSFMOptions returns the paper's settings.
func DefaultSFMOptions() SFMOptions {
	return SFMOptions{
		FCMCap:              10,
		ProactiveMapRegen:   true,
		SpeculativeRecovery: true,
		WaitAdvisory:        true,
	}
}

// FailureReport is the input of Algorithm 1: one failure event as seen by
// the AppMaster.
type FailureReport struct {
	SourceNode    topology.NodeID
	NodeAlive     bool  // line 9: is N still alive?
	FailedMaps    []int // failed MapTasks in R
	LostMOFMaps   []int // completed maps whose MOFs were involved in R
	FailedReduces []int
}

// SchedulerView is what Algorithm 1 needs to observe about the job.
type SchedulerView interface {
	// AttemptsOnNode counts attempts of the reduce task launched on the
	// node (line 10).
	AttemptsOnNode(reduceIdx int, node topology.NodeID) int
	// RunningAttempts counts live attempts of the reduce task (line 14).
	RunningAttempts(reduceIdx int) int
	// FCMTasksInJob counts reduce attempts currently in FCM mode
	// (line 16).
	FCMTasksInJob() int
}

// ActionKind classifies scheduling decisions.
type ActionKind int

// Decision kinds produced by Algorithm 1.
const (
	// ActionRerunMap re-executes a map at high priority on a healthy node.
	ActionRerunMap ActionKind = iota
	// ActionRelaunchLocal re-launches a failed reduce on its original
	// (still alive) node, where its ALG logs reside.
	ActionRelaunchLocal
	// ActionSpeculativeFCM spawns a speculative recovery reduce in FCM
	// mode on a healthy node.
	ActionSpeculativeFCM
	// ActionSpeculativeRegular spawns a speculative recovery reduce in
	// regular mode (FCM cap reached).
	ActionSpeculativeRegular
)

func (k ActionKind) String() string {
	switch k {
	case ActionRerunMap:
		return "rerun-map"
	case ActionRelaunchLocal:
		return "relaunch-local"
	case ActionSpeculativeFCM:
		return "speculative-fcm"
	case ActionSpeculativeRegular:
		return "speculative-regular"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is one scheduling decision.
type Action struct {
	Kind      ActionKind
	TaskIdx   int
	Node      topology.NodeID // ActionRelaunchLocal target
	HighPrio  bool
	AvoidNode topology.NodeID // speculative attempts avoid the source node
}

// Algorithm1 is the paper's Enhanced Failure Recovery Scheduling Policy,
// verbatim in structure:
//
//	for all m in T_maps: schedule another attempt of m with higher priority   (5-7)
//	for all r in T_reduces:
//	  if N alive and attempts on N < limit_local: relaunch r on N             (9-13)
//	  if running attempts of r <= 2:
//	    spawn speculative t; FCM mode if FCM tasks <= FCM_cap else regular    (14-21)
//
// fcmBudget tracks FCM tasks granted within this invocation so that a
// batch of failures respects the cap.
func Algorithm1(r FailureReport, view SchedulerView, opt SFMOptions) []Action {
	var actions []Action
	if opt.ProactiveMapRegen {
		seen := make(map[int]bool)
		for _, lists := range [][]int{r.FailedMaps, r.LostMOFMaps} {
			for _, m := range lists {
				if seen[m] {
					continue
				}
				seen[m] = true
				actions = append(actions, Action{Kind: ActionRerunMap, TaskIdx: m, HighPrio: true, AvoidNode: r.SourceNode})
			}
		}
	}
	fcmInFlight := view.FCMTasksInJob()
	for _, rd := range r.FailedReduces {
		if r.NodeAlive && view.AttemptsOnNode(rd, r.SourceNode) < LimitLocal {
			actions = append(actions, Action{Kind: ActionRelaunchLocal, TaskIdx: rd, Node: r.SourceNode})
		}
		if !opt.SpeculativeRecovery {
			continue
		}
		if view.RunningAttempts(rd) <= MaxRunningAttempts {
			if fcmInFlight <= opt.FCMCap {
				actions = append(actions, Action{Kind: ActionSpeculativeFCM, TaskIdx: rd, AvoidNode: r.SourceNode})
				fcmInFlight++
			} else {
				actions = append(actions, Action{Kind: ActionSpeculativeRegular, TaskIdx: rd, AvoidNode: r.SourceNode})
			}
		}
	}
	return actions
}

package engine

import (
	"alm/internal/core"
	"alm/internal/faults"
	"alm/internal/topology"
)

// Decision scores. Each policy rates the actions it considers on one
// shared utility scale so decision records (and the regret between them)
// are comparable across policies in a tournament: a local resume that
// replays logs saves the most re-execution, an FCM attempt beats a
// regular speculative one, and a from-scratch relaunch anywhere is the
// baseline of 1.
const (
	scoreRelaunchAny    = 1.0
	scoreLocalNoLogs    = 0.5 // local placement without logs buys nothing
	scoreLocalResume    = 2.0 // ALG logs replay: skips re-shuffle + re-reduce
	scoreSpecFCM        = 1.8 // FCM fetches flushed state instead of recomputing
	scoreSpecRegular    = 1.2 // plain extra attempt, still beats waiting
	scoreProactiveRegen = 1.5 // regenerate MOFs before reducers strike out
	scoreFetchThreshold = 1.0 // stock: wait for MapRerunFetchReports reports
)

// stockPolicy is stock YARN recovery expressed as a RecoveryPolicy, with
// the ALG variant (alg=true) preferring the failed reduce's original node
// so its local analytics logs can replay. It reproduces the pre-framework
// ModeYARN/ModeALG engine byte-for-byte (TestPolicyParityGoldens).
type stockPolicy struct {
	name string
	// alg marks the analytics-logging data plane: failed reduces prefer
	// their original node and resume from local logs when it is usable.
	alg bool
	// fetchReports counts fetch-failure reports per map index — stock
	// Hadoop's notification counter behind fetch-driven map re-execution.
	fetchReports map[int]int
}

func newStockPolicy(name string, alg bool) *stockPolicy {
	return &stockPolicy{name: name, alg: alg, fetchReports: make(map[int]int)}
}

func (p *stockPolicy) Name() string { return p.name }

func (p *stockPolicy) OnAttemptFailed(pc PolicyContext, ev FailedAttempt) {
	if ev.Typ == faults.Map {
		// Maps are short: re-execute on a healthy node.
		pc.RecoverMap(ev.TaskIdx, ev.HighPrio, ev.Node)
		return
	}
	if pc.TaskDone(faults.Reduce, ev.TaskIdx) || pc.LiveAttempts(faults.Reduce, ev.TaskIdx) > 0 {
		return // a sibling attempt is still running (baseline speculation)
	}
	// Stock YARN re-launches the reduce from scratch anywhere; ALG prefers
	// the original node so its local logs can be replayed.
	usable := pc.NodeUsable(ev.Node)
	localScore := 0.0
	if usable {
		localScore = scoreLocalNoLogs
		if p.alg {
			localScore = scoreLocalResume
		}
	}
	opt := ReduceLaunch{Prefer: topology.Invalid}
	chosen, score := "relaunch-any", scoreRelaunchAny
	switch {
	case p.alg && usable:
		opt.Prefer, opt.LocalResume = ev.Node, true
		chosen, score = "relaunch-local-resume", localScore
	case !usable:
		opt.Avoid = ev.Node
		chosen = "relaunch-avoid-origin"
	}
	pc.Decide(newDecision(pc.Now(), p.name, PolicyEventAttemptFailed,
		attemptID(faults.Reduce, ev.TaskIdx, 0), chosen, score, []ScoredAction{
			{Action: "relaunch-any", Score: scoreRelaunchAny},
			{Action: "relaunch-local-resume", Score: localScore},
		}))
	pc.LaunchReduce(ev.TaskIdx, opt)
}

func (p *stockPolicy) OnNodeLost(pc PolicyContext, node topology.NodeID) {
	// Every attempt on the node fails and recovers individually; the
	// node's lost MOFs are rediscovered by reducers' fetch failures.
	pc.FailAttemptsOnNode(node, false)
}

func (p *stockPolicy) OnFetchFailureReport(pc PolicyContext, ev FetchFailureReport) {
	// Stock behaviour: count reports per map; re-execute after threshold.
	threshold := pc.Conf().MapRerunFetchReports
	for _, m := range ev.MapIdxs {
		p.fetchReports[m]++
		if p.fetchReports[m] >= threshold && !pc.MOFAvailable(m) && !pc.RerunScheduled(m) {
			pc.ScheduleMapRerun(m, false, ev.Host, "fetch-failure threshold")
		}
	}
}

func (p *stockPolicy) OnStragglerTick(pc PolicyContext) {
	if !pc.Conf().SpeculativeExecution || pc.JobDone() {
		return
	}
	lateStragglerScan(pc, p.name)
}

func (p *stockPolicy) OnStarvationDeath(pc PolicyContext, blockedMaps []int) {
	regenerateBlockedMaps(pc, blockedMaps, false)
}

func (p *stockPolicy) ShouldWait(PolicyContext, int) bool { return false }

func (p *stockPolicy) PlaceAttempt(pc PolicyContext, typ faults.TaskType, taskIdx int, prefer []topology.NodeID) []topology.NodeID {
	return prefer
}

// regenerateBlockedMaps re-executes the maps a starved reducer was
// blocked on (their output is evidently gone) — Hadoop's
// TooManyFetchFailureTransition, shared by every policy; only the
// regeneration priority differs.
func regenerateBlockedMaps(pc PolicyContext, blockedMaps []int, highPrio bool) {
	for _, m := range blockedMaps {
		if pc.MOFAvailable(m) || pc.RerunScheduled(m) {
			continue
		}
		pc.ScheduleMapRerun(m, highPrio, topology.Invalid, "reducer starvation death")
	}
}

// sfmPolicy is the paper's Speculative Fast Migration scheduling
// (Algorithm 1 + FCM + wait advisories) as a RecoveryPolicy; with the
// embedded stock policy's alg flag set it is the full ALM framework. It
// reproduces the pre-framework ModeSFM/ModeALM engine byte-for-byte.
type sfmPolicy struct {
	stockPolicy // fetch counting (regen ablated), straggler scan, placement
	opts        core.SFMOptions
}

func newSFMPolicy(name string, opts core.SFMOptions, alg bool) *sfmPolicy {
	return &sfmPolicy{stockPolicy: *newStockPolicy(name, alg), opts: opts}
}

func (p *sfmPolicy) OnAttemptFailed(pc PolicyContext, ev FailedAttempt) {
	if ev.Typ == faults.Map {
		// SFM regenerates maps at high priority.
		pc.RecoverMap(ev.TaskIdx, true, ev.Node)
		return
	}
	if pc.TaskDone(faults.Reduce, ev.TaskIdx) {
		return
	}
	report := core.FailureReport{
		SourceNode:    ev.Node,
		NodeAlive:     ev.Node != topology.Invalid && pc.NodeReachable(ev.Node),
		FailedReduces: []int{ev.TaskIdx},
	}
	p.runAlgorithm1(pc, PolicyEventAttemptFailed, report)
	// SFM enhances — never removes — the stock re-execution guarantee:
	// if the policy produced no recovery attempt (ablated speculation,
	// exhausted local limit on a dead node), fall back to a baseline
	// relaunch so the task is never orphaned.
	if !pc.TaskDone(faults.Reduce, ev.TaskIdx) && pc.LiveAttempts(faults.Reduce, ev.TaskIdx) == 0 {
		opt := ReduceLaunch{Prefer: topology.Invalid}
		if !pc.NodeUsable(ev.Node) {
			opt.Avoid = ev.Node
		}
		pc.LaunchReduce(ev.TaskIdx, opt)
	}
}

func (p *sfmPolicy) OnNodeLost(pc PolicyContext, node topology.NodeID) {
	// Batch the node's reduce failures into one Algorithm 1 report (maps
	// still recover individually through OnAttemptFailed).
	failedReduces := pc.FailAttemptsOnNode(node, true)
	if pc.JobDone() {
		return
	}
	report := core.FailureReport{
		SourceNode:    node,
		NodeAlive:     false,
		LostMOFMaps:   pc.MapsWithMOFOn(node),
		FailedReduces: failedReduces,
	}
	p.runAlgorithm1(pc, PolicyEventNodeLost, report)
	// Never orphan a reduce: if the (possibly ablated) policy left a
	// failed task with no attempt, fall back to a stock relaunch.
	for _, idx := range failedReduces {
		if !pc.TaskDone(faults.Reduce, idx) && pc.LiveAttempts(faults.Reduce, idx) == 0 && !pc.JobDone() {
			pc.LaunchReduce(idx, ReduceLaunch{Prefer: topology.Invalid, Avoid: node})
		}
	}
}

func (p *sfmPolicy) OnFetchFailureReport(pc PolicyContext, ev FetchFailureReport) {
	if p.opts.ProactiveMapRegen && !pc.NodeReachable(ev.Host) {
		// SFM is aware of the cause: regenerate all of the host's MOFs
		// proactively; reducers get the wait advisory meanwhile.
		lost := pc.MapsWithMOFOn(ev.Host)
		if len(lost) > 0 {
			if p.opts.WaitAdvisory {
				pc.IssueWaitAdvisory(ev.ReduceIdx, ev.Host, len(lost))
			}
			p.runAlgorithm1(pc, PolicyEventFetchFailure,
				core.FailureReport{SourceNode: ev.Host, NodeAlive: false, LostMOFMaps: lost})
		}
		return
	}
	p.stockPolicy.OnFetchFailureReport(pc, ev)
}

func (p *sfmPolicy) OnStarvationDeath(pc PolicyContext, blockedMaps []int) {
	regenerateBlockedMaps(pc, blockedMaps, true)
}

func (p *sfmPolicy) ShouldWait(pc PolicyContext, mapIdx int) bool {
	if !p.opts.WaitAdvisory {
		return false
	}
	// RerunScheduled first: a slice read, false throughout a fault-free
	// run, where MOFAvailable would ask the cluster for every candidate.
	return pc.RerunScheduled(mapIdx) && !pc.MOFAvailable(mapIdx)
}

// runAlgorithm1 executes the SFM policy decisions, recording one
// decision per action. A speculative-regular launch is chosen only when
// the FCM budget is exhausted, so its regret against the preferred FCM
// attempt is exactly what the cap cost.
func (p *sfmPolicy) runAlgorithm1(pc PolicyContext, event PolicyEventKind, report core.FailureReport) {
	actions := core.Algorithm1(report, pc, p.opts)
	for _, act := range actions {
		switch act.Kind {
		case core.ActionRerunMap:
			if pc.RerunScheduled(act.TaskIdx) || (pc.TaskDone(faults.Map, act.TaskIdx) && pc.MOFAvailable(act.TaskIdx)) {
				continue
			}
			pc.Decide(newDecision(pc.Now(), p.name, PolicyEventMapRegen,
				attemptID(faults.Map, act.TaskIdx, 0), "proactive-regen", scoreProactiveRegen,
				[]ScoredAction{{Action: "await-fetch-threshold", Score: scoreFetchThreshold}}))
			pc.ScheduleMapRerun(act.TaskIdx, act.HighPrio, act.AvoidNode, "sfm proactive regen")
		case core.ActionRelaunchLocal:
			pc.Decide(newDecision(pc.Now(), p.name, event,
				attemptID(faults.Reduce, act.TaskIdx, 0), "relaunch-local-resume", scoreLocalResume,
				[]ScoredAction{{Action: "relaunch-any", Score: scoreRelaunchAny}}))
			pc.LaunchReduce(act.TaskIdx, ReduceLaunch{Prefer: act.Node, LocalResume: true})
		case core.ActionSpeculativeFCM:
			pc.Decide(newDecision(pc.Now(), p.name, event,
				attemptID(faults.Reduce, act.TaskIdx, 0), "speculative-fcm", scoreSpecFCM,
				[]ScoredAction{{Action: "speculative-regular", Score: scoreSpecRegular}}))
			pc.LaunchReduce(act.TaskIdx, ReduceLaunch{FCM: true, Prefer: topology.Invalid, Avoid: act.AvoidNode})
		case core.ActionSpeculativeRegular:
			pc.Decide(newDecision(pc.Now(), p.name, event,
				attemptID(faults.Reduce, act.TaskIdx, 0), "speculative-regular", scoreSpecRegular,
				[]ScoredAction{{Action: "speculative-fcm", Score: scoreSpecFCM}}))
			pc.LaunchReduce(act.TaskIdx, ReduceLaunch{Prefer: topology.Invalid, Avoid: act.AvoidNode})
		}
	}
}

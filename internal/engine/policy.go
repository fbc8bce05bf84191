package engine

import (
	"sort"
	"strconv"

	"alm/internal/faults"
	"alm/internal/mr"
	"alm/internal/sim"
	"alm/internal/topology"
	"alm/internal/trace"
)

// RecoveryPolicy is the pluggable brain behind every recovery,
// speculation and placement decision the AppMaster makes. The engine
// delivers scheduler events — a failed attempt, a lost node, a reducer's
// fetch-failure report, the periodic straggler scan, a starvation-driven
// MOF re-generation — and the policy reacts by invoking actions on the
// PolicyContext. The four legacy modes (yarn/alg/sfm/alm) are expressed
// as policies that reproduce the pre-framework engine byte-for-byte
// (golden-locked by TestPolicyParityGoldens); competing policies from
// the related work (binocular speculation, ATLAS-style failure-aware
// placement) plug in beside them and race in `almrun -tournament`.
//
// Hooks run inside the single-threaded event engine: no locking, and
// every read/write through the context is deterministic.
type RecoveryPolicy interface {
	// Name is the registry name, also stamped on decision records.
	Name() string
	// OnAttemptFailed decides recovery for one failed attempt (injected
	// error, progress timeout, fetch starvation, or per-attempt node
	// loss). The attempt's failure is already accounted; the hook only
	// chooses what to launch next.
	OnAttemptFailed(pc PolicyContext, ev FailedAttempt)
	// OnNodeLost decides how to fail and recover the attempts and MOFs of
	// a node just declared lost by heartbeat expiry.
	OnNodeLost(pc PolicyContext, node topology.NodeID)
	// OnFetchFailureReport reacts to a reducer's report that maps on a
	// host could not be fetched.
	OnFetchFailureReport(pc PolicyContext, ev FetchFailureReport)
	// OnStragglerTick is the periodic speculation scan (every AM
	// heartbeat). Policies gate it on Config.SpeculativeExecution.
	OnStragglerTick(pc PolicyContext)
	// OnStarvationDeath decides MOF re-generation after a reducer died of
	// fetch starvation: the maps it was blocked on evidently lost their
	// output and must re-execute in every mode; the policy chooses the
	// priority (and placement, via PlaceAttempt).
	OnStarvationDeath(pc PolicyContext, blockedMaps []int)
	// ShouldWait reports whether a reducer blocked on this map should
	// wait for regeneration instead of accumulating fetch failures.
	ShouldWait(pc PolicyContext, mapIdx int) bool
	// PlaceAttempt may reorder or replace the container preference list
	// of an attempt about to be requested. Return prefer unchanged for
	// the engine default.
	PlaceAttempt(pc PolicyContext, typ faults.TaskType, taskIdx int, prefer []topology.NodeID) []topology.NodeID
}

// FailedAttempt describes one attempt failure to OnAttemptFailed.
type FailedAttempt struct {
	Typ      faults.TaskType
	TaskIdx  int
	Node     topology.NodeID // where it ran (Invalid if never placed)
	HighPrio bool            // the attempt carried map-regeneration priority
	Reason   string
}

// FetchFailureReport describes one reducer report to OnFetchFailureReport.
type FetchFailureReport struct {
	ReduceIdx int
	Host      topology.NodeID
	MapIdxs   []int
}

// AttemptInfo is a read-only view of one running attempt.
type AttemptInfo struct {
	ID       string
	Node     topology.NodeID
	NodeName string
	Progress float64
	Launched sim.Time
}

// ReduceLaunch configures a reduce relaunch requested by a policy. It
// mirrors the AM's internal launch options.
type ReduceLaunch struct {
	FCM         bool
	LocalResume bool
	Prefer      topology.NodeID
	Avoid       topology.NodeID
}

// PolicyContext is the policy's window into the job: deterministic
// queries over task/cluster state plus the action verbs that launch
// attempts, all implemented by the AppMaster. It embeds everything
// core.Algorithm1 needs, so a context can be passed to it directly.
type PolicyContext interface {
	Now() sim.Time
	Conf() *mr.Config

	// --- cluster state ---
	NumNodes() int
	NodeUsable(node topology.NodeID) bool
	NodeReachable(node topology.NodeID) bool
	NodeName(node topology.NodeID) string
	// NodeFailures counts attempt failures charged to the node so far
	// (task faults and node loss alike) — the failure history behind
	// ATLAS-style placement.
	NodeFailures(node topology.NodeID) int
	// LastNodeFailure is when the node last failed an attempt (zero if
	// never).
	LastNodeFailure(node topology.NodeID) sim.Time

	// --- task state ---
	NumTasks(typ faults.TaskType) int
	TaskDone(typ faults.TaskType, idx int) bool
	LiveAttempts(typ faults.TaskType, idx int) int
	RunningAttemptInfo(typ faults.TaskType, idx int) (AttemptInfo, bool)
	MOFAvailable(mapIdx int) bool
	MapsWithMOFOn(node topology.NodeID) []int
	RerunScheduled(mapIdx int) bool
	JobDone() bool

	// --- core.SchedulerView (Algorithm 1 inputs) ---
	AttemptsOnNode(reduceIdx int, node topology.NodeID) int
	RunningAttempts(reduceIdx int) int
	FCMTasksInJob() int

	// --- speculation bookkeeping ---
	SpeculativeLaunched() int
	SpeculativeCap() int

	// --- actions ---
	// RecoverMap relaunches a failed map (the standard both-modes path:
	// re-execute on a healthy node, avoiding the failed one).
	RecoverMap(idx int, highPrio bool, avoid topology.NodeID)
	// ScheduleMapRerun re-executes a completed map whose output is lost,
	// with rerun bookkeeping and a map-rescheduled trace line carrying
	// the given reason.
	ScheduleMapRerun(idx int, highPrio bool, avoid topology.NodeID, reason string)
	LaunchReduce(idx int, opt ReduceLaunch)
	// SpeculativeBackup launches one backup attempt for a straggling
	// task and charges the speculative budget.
	SpeculativeBackup(typ faults.TaskType, idx int, avoid topology.NodeID)
	// IssueWaitAdvisory tells a blocked reducer to wait for MOF
	// regeneration (accounted + traced like SFM's advisory).
	IssueWaitAdvisory(reduceIdx int, host topology.NodeID, lostMaps int)
	// FailAttemptsOnNode kills every attempt running on the node. With
	// batchReduces, reduce failures are accounted without per-attempt
	// recovery and returned for a batched policy report; otherwise each
	// failure recovers individually through OnAttemptFailed.
	FailAttemptsOnNode(node topology.NodeID, batchReduces bool) []int

	// --- observability ---
	Emit(kind trace.Kind, task, node, detail string)
	Counter(name string, delta int64)
	// Decide records one decision trace (Result.Decisions, metrics, and —
	// when JobSpec.DecisionTrace is set — a policy-decision trace event).
	Decide(d PolicyDecision)
}

// ---- decision traces ----

// PolicyEventKind names the scheduler event a decision answered.
type PolicyEventKind string

// Decision event kinds.
const (
	PolicyEventAttemptFailed PolicyEventKind = "attempt-failed"
	PolicyEventNodeLost      PolicyEventKind = "node-lost"
	PolicyEventFetchFailure  PolicyEventKind = "fetch-failure"
	PolicyEventStraggler     PolicyEventKind = "straggler-tick"
	PolicyEventMapRegen      PolicyEventKind = "mof-regen"
	PolicyEventPlacement     PolicyEventKind = "placement"
)

// ScoredAction is one alternative a policy considered, with the score it
// assigned under its own objective.
type ScoredAction struct {
	Action string
	Score  float64
}

// PolicyDecision is one recorded scheduling decision with its
// counterfactual: the top-K alternatives the policy considered and the
// regret — how much better its own scoring rated the best unchosen
// alternative (floored at zero; zero means the chosen action was the
// policy's argmax).
type PolicyDecision struct {
	At      sim.Time
	Policy  string
	Event   PolicyEventKind
	Subject string // attempt/task id or node name the decision is about
	Action  string // chosen action
	Score   float64
	// TopK holds the unchosen alternatives, best-first (bounded at
	// decisionTopK entries).
	TopK   []ScoredAction
	Regret float64
}

// decisionTopK bounds recorded alternatives per decision.
const decisionTopK = 3

// newDecision assembles a decision record from the chosen action and the
// full scored candidate list (which may include the chosen action
// itself; it is filtered out by Action string).
func newDecision(at sim.Time, policy string, event PolicyEventKind, subject, chosen string, chosenScore float64, alts []ScoredAction) PolicyDecision {
	d := PolicyDecision{At: at, Policy: policy, Event: event, Subject: subject, Action: chosen, Score: chosenScore}
	kept := make([]ScoredAction, 0, len(alts))
	for _, a := range alts {
		if a.Action != chosen {
			kept = append(kept, a)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Score > kept[j].Score })
	if len(kept) > decisionTopK {
		kept = kept[:decisionTopK]
	}
	d.TopK = kept
	if len(kept) > 0 && kept[0].Score > chosenScore {
		d.Regret = kept[0].Score - chosenScore
	}
	return d
}

// appendDetail renders the decision's trace detail: chosen action, score,
// regret and alternatives, with strconv appenders (the decision path is
// cold, but it shares the trace buffer discipline).
func (d *PolicyDecision) appendDetail(b []byte) []byte {
	b = append(b, d.Policy...)
	b = append(b, ' ')
	b = append(b, d.Event...)
	b = append(b, " -> "...)
	b = append(b, d.Action...)
	b = append(b, " score="...)
	b = strconv.AppendFloat(b, d.Score, 'f', 2, 64)
	b = append(b, " regret="...)
	b = strconv.AppendFloat(b, d.Regret, 'f', 2, 64)
	for i := range d.TopK {
		if i == 0 {
			b = append(b, " alt="...)
		} else {
			b = append(b, ',')
		}
		b = append(b, d.TopK[i].Action...)
		b = append(b, ':')
		b = strconv.AppendFloat(b, d.TopK[i].Score, 'f', 2, 64)
	}
	return b
}

// Detail renders the human-readable decision summary (also the trace
// detail emitted under JobSpec.DecisionTrace).
func (d *PolicyDecision) Detail() string { return string(d.appendDetail(nil)) }

// ---- registry ----

// policyFactory builds a policy instance for one job.
type policyFactory struct {
	build func(spec *JobSpec) RecoveryPolicy
	// mode, when >= 0, is the data-plane Mode the policy requires; the
	// legacy policies pin their mode so `Policy: "alm"` alone configures
	// a run.
	mode Mode
}

var policyRegistry = map[string]policyFactory{
	"yarn":      {build: func(s *JobSpec) RecoveryPolicy { return newStockPolicy("yarn", false) }, mode: ModeYARN},
	"alg":       {build: func(s *JobSpec) RecoveryPolicy { return newStockPolicy("alg", true) }, mode: ModeALG},
	"sfm":       {build: func(s *JobSpec) RecoveryPolicy { return newSFMPolicy("sfm", s.SFM, false) }, mode: ModeSFM},
	"alm":       {build: func(s *JobSpec) RecoveryPolicy { return newSFMPolicy("alm", s.SFM, true) }, mode: ModeALM},
	"binocular": {build: func(s *JobSpec) RecoveryPolicy { return newBinocularPolicy() }, mode: -1},
	"atlas":     {build: func(s *JobSpec) RecoveryPolicy { return newAtlasPolicy() }, mode: -1},
}

// PolicyNames lists every registered recovery policy, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(policyRegistry))
	for n := range policyRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

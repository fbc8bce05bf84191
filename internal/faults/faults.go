// Package faults describes fault-injection plans: what to break and when.
// Plans are pure data; the engine evaluates triggers at progress
// boundaries and virtual-time points and applies the actions, mirroring
// the paper's methodology ("we inject out-of-memory exceptions to crash a
// task ... and stop the network services on a node for node failures").
//
// Beyond the paper's clean faults (task OOM, permanent network stop, node
// crash), the vocabulary covers the gray failures real clusters exhibit:
// partitions that heal, probabilistically flaky links, degraded NICs and
// disks, and correlated rack-wide crashes — the conditions under which
// the chaos harness (internal/chaos) checks the recovery invariants.
package faults

import (
	"fmt"
	"math"
	"time"
)

// TaskType selects map or reduce tasks.
type TaskType int

// Task types.
const (
	Map TaskType = iota
	Reduce
)

func (t TaskType) String() string {
	if t == Map {
		return "map"
	}
	return "reduce"
}

// TriggerKind says what condition arms an injection.
type TriggerKind int

// Trigger kinds.
const (
	// AtTime fires at an absolute virtual time.
	AtTime TriggerKind = iota
	// AtTaskProgress fires when the target task's first attempt reaches a
	// progress fraction.
	AtTaskProgress
	// AtReducePhaseProgress fires when the average reduce progress of the
	// job reaches a fraction.
	AtReducePhaseProgress
	// AtJobProgress fires when overall job progress (mean of map and
	// reduce phase fractions) reaches a fraction.
	AtJobProgress
)

// Trigger is an injection's firing condition.
type Trigger struct {
	Kind     TriggerKind
	Time     time.Duration // AtTime
	Task     TaskType      // AtTaskProgress
	TaskIdx  int           // AtTaskProgress
	Fraction float64       // progress-based kinds
}

// ActionKind says what an injection breaks.
type ActionKind int

// Action kinds.
const (
	// FailTask makes the running attempt of a task die with a fatal error
	// (the paper's injected OOM).
	FailTask ActionKind = iota
	// StopNodeNetwork makes a node unreachable while its process and disk
	// survive (the paper's "stop the network services"). With a positive
	// HealAfter the stop is transient: the network comes back after that
	// long and the cluster re-admits the node.
	StopNodeNetwork
	// CrashNode kills the node process and loses its local data.
	CrashNode
	// SlowNode degrades a node's disk bandwidth by Action.Factor — the
	// paper's "faulty node ... still responsive but very slow in I/O"
	// case that makes local relaunch produce stragglers. A positive
	// HealAfter restores full bandwidth after that long.
	SlowNode
	// PartitionNode is a transient network partition: StopNodeNetwork that
	// must heal (HealAfter is required). Modelled separately so a plan
	// reads as what it means.
	PartitionNode
	// HealNode restores a partitioned node's network immediately (the
	// explicit counterpart of PartitionNode's timed heal).
	HealNode
	// FlakyLink makes connection attempts between Node and Node2 fail with
	// probability FailProb and, when 0 < Factor < 1, degrades the pair's
	// bandwidth to Factor of the narrower NIC. Both nodes stay reachable —
	// the gray failure the stock fetch-failure protocol cannot strike on.
	FlakyLink
	// DegradeNIC scales a node's NIC bandwidth to Factor (a renegotiated
	// 10GbE->1GbE link, a half-broken bond). Heartbeats still flow.
	DegradeNIC
	// CrashRack crashes every node of rack Action.Rack at once — a
	// correlated failure (PDU or top-of-rack switch loss).
	CrashRack
	// CrashTierNode kills the remote-shuffle service on tier ordinal
	// Action.Node (not a topology node index): its stored segments are
	// lost and must be re-replicated or re-pushed. A positive HealAfter
	// restarts the service empty after that long. Only meaningful for
	// runs with Shuffle.Remote; the engine rejects it otherwise.
	CrashTierNode
	// HotPartition flags reduce partition Action.TaskIdx as a shuffle-tier
	// hot spot: fetches shift off its primary replica and the primary's
	// disks degrade to Factor of their bandwidth (skewed keys
	// concentrating load on one tier node). A positive HealAfter clears
	// the skew. Remote-shuffle runs only.
	HotPartition
)

// NodeSelector picks the node an action targets.
type NodeSelector int

// Node selectors.
const (
	// NodeExplicit targets Action.Node.
	NodeExplicit NodeSelector = iota
	// NodeOfTask targets the node running the task's current attempt.
	NodeOfTask
	// NodeWithMOFsOnly targets a node that hosts map output but no running
	// ReduceTask (the Fig. 4 spatial-amplification scenario).
	NodeWithMOFsOnly
)

// Action is what an injection does when its trigger fires.
type Action struct {
	Kind     ActionKind
	Task     TaskType // FailTask / NodeOfTask
	TaskIdx  int
	Selector NodeSelector
	Node     int     // NodeExplicit; FlakyLink endpoint A
	Node2    int     // FlakyLink endpoint B
	Rack     int     // CrashRack
	Factor   float64 // SlowNode/DegradeNIC/FlakyLink: bandwidth multiplier
	// FailProb is FlakyLink's per-connection-attempt failure probability.
	FailProb float64
	// HealAfter undoes the action after this long: a network stop heals, a
	// slow disk or NIC recovers, a flaky link stabilises. Zero means
	// permanent (required positive for PartitionNode).
	HealAfter time.Duration
}

// Injection pairs a trigger with an action. By default each fires at most
// once; AtTime injections can recur by setting Every (and optionally
// Times) via AddRecurring.
type Injection struct {
	When Trigger
	Do   Action
	// Every re-arms an AtTime injection this long after each firing.
	Every time.Duration
	// Times bounds total firings of a recurring injection; <= 0 with a
	// positive Every means 2 (fire, recur once).
	Times int

	// Done is set by the engine once the injection will not fire again.
	Done bool
	// Fired counts how many times the injection has been applied.
	Fired int
}

func (i *Injection) String() string {
	s := fmt.Sprintf("when{kind=%d t=%v frac=%.2f} do{kind=%d}", i.When.Kind, i.When.Time, i.When.Fraction, i.Do.Kind)
	if i.Every > 0 {
		s += fmt.Sprintf(" every{%v x%d}", i.Every, i.MaxFirings())
	}
	return s
}

// MaxFirings returns how many times the injection may fire in total.
func (i *Injection) MaxFirings() int {
	if i.Every <= 0 {
		return 1
	}
	if i.Times <= 0 {
		return 2
	}
	return i.Times
}

// Plan is a set of injections applied to one job run.
type Plan struct {
	Injections []*Injection
}

// Add appends an injection and returns the plan for chaining.
func (p *Plan) Add(when Trigger, do Action) *Plan {
	p.Injections = append(p.Injections, &Injection{When: when, Do: do})
	return p
}

// AddRecurring appends an AtTime injection that re-fires every interval,
// up to times total firings (<= 0 means twice). Recurrence is only
// meaningful for AtTime triggers; Validate rejects it elsewhere.
func (p *Plan) AddRecurring(when Trigger, do Action, every time.Duration, times int) *Plan {
	p.Injections = append(p.Injections, &Injection{When: when, Do: do, Every: every, Times: times})
	return p
}

// Clone returns a deep copy of the plan with fresh runtime state
// (Done/Fired reset), so one plan value can drive many runs. The engine
// clones every plan it is handed; callers never see their plan mutated.
// A nil plan clones to nil.
func (p *Plan) Clone() *Plan {
	if p == nil {
		return nil
	}
	out := &Plan{Injections: make([]*Injection, len(p.Injections))}
	for i, inj := range p.Injections {
		out.Injections[i] = &Injection{When: inj.When, Do: inj.Do, Every: inj.Every, Times: inj.Times}
	}
	return out
}

// Validate rejects malformed plans at construction time with a
// descriptive error, instead of letting a bad trigger silently never
// fire: fractions outside [0,1], negative times and indices, missing
// FlakyLink endpoints, probabilities and factors outside range, a
// PartitionNode with no heal, recurrence on progress triggers.
//
// Upper task-index bounds are deliberately not checked here: a plan is
// built before the job's split count is known, and the scaled experiment
// harness legitimately requests "fail the first n tasks" with n above the
// reduced-scale task count (surplus injections never fire).
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, inj := range p.Injections {
		if err := inj.validate(); err != nil {
			return fmt.Errorf("faults: injection %d (%s): %w", i, inj, err)
		}
	}
	return nil
}

func (inj *Injection) validate() error {
	w, a := inj.When, inj.Do
	switch w.Kind {
	case AtTime:
		if w.Time < 0 {
			return fmt.Errorf("negative trigger time %v", w.Time)
		}
	case AtTaskProgress, AtReducePhaseProgress, AtJobProgress:
		if math.IsNaN(w.Fraction) || w.Fraction < 0 || w.Fraction > 1 {
			return fmt.Errorf("trigger fraction %v outside [0,1]", w.Fraction)
		}
		if w.Kind == AtTaskProgress && w.TaskIdx < 0 {
			return fmt.Errorf("negative trigger task index %d", w.TaskIdx)
		}
		if inj.Every > 0 {
			return fmt.Errorf("recurrence (Every=%v) requires an AtTime trigger", inj.Every)
		}
	default:
		return fmt.Errorf("unknown trigger kind %d", w.Kind)
	}
	if inj.Every < 0 {
		return fmt.Errorf("negative recurrence interval %v", inj.Every)
	}
	if inj.Times < 0 {
		return fmt.Errorf("negative recurrence count %d", inj.Times)
	}
	if inj.Times > 0 && inj.Every <= 0 {
		return fmt.Errorf("Times=%d without a recurrence interval", inj.Times)
	}
	if a.HealAfter < 0 {
		return fmt.Errorf("negative HealAfter %v", a.HealAfter)
	}
	switch a.Kind {
	case FailTask:
		if a.TaskIdx < 0 {
			return fmt.Errorf("negative action task index %d", a.TaskIdx)
		}
	case StopNodeNetwork, CrashNode, HealNode:
		return inj.validateNodeTarget()
	case SlowNode, DegradeNIC:
		if !(a.Factor > 0 && a.Factor <= 1) {
			return fmt.Errorf("%s factor %v outside (0,1]", kindName(a.Kind), a.Factor)
		}
		return inj.validateNodeTarget()
	case PartitionNode:
		if a.HealAfter <= 0 {
			return fmt.Errorf("PartitionNode requires a positive HealAfter (use StopNodeNetwork for a permanent stop)")
		}
		return inj.validateNodeTarget()
	case FlakyLink:
		if a.Selector != NodeExplicit {
			return fmt.Errorf("FlakyLink requires explicit endpoints")
		}
		if a.Node < 0 || a.Node2 < 0 {
			return fmt.Errorf("negative FlakyLink endpoint (%d, %d)", a.Node, a.Node2)
		}
		if a.Node == a.Node2 {
			return fmt.Errorf("FlakyLink endpoints must differ (both %d)", a.Node)
		}
		if math.IsNaN(a.FailProb) || a.FailProb < 0 || a.FailProb > 1 {
			return fmt.Errorf("FlakyLink probability %v outside [0,1]", a.FailProb)
		}
		if !(a.Factor >= 0 && a.Factor <= 1) {
			return fmt.Errorf("FlakyLink bandwidth factor %v outside [0,1]", a.Factor)
		}
	case CrashRack:
		if a.Rack < 0 {
			return fmt.Errorf("negative rack index %d", a.Rack)
		}
	case CrashTierNode:
		if a.Selector != NodeExplicit {
			return fmt.Errorf("CrashTierNode requires an explicit tier ordinal")
		}
		if a.Node < 0 {
			return fmt.Errorf("negative tier ordinal %d", a.Node)
		}
	case HotPartition:
		if a.TaskIdx < 0 {
			return fmt.Errorf("negative hot partition index %d", a.TaskIdx)
		}
		if !(a.Factor > 0 && a.Factor <= 1) {
			return fmt.Errorf("HotPartition factor %v outside (0,1]", a.Factor)
		}
	default:
		return fmt.Errorf("unknown action kind %d", a.Kind)
	}
	return nil
}

func (inj *Injection) validateNodeTarget() error {
	a := inj.Do
	switch a.Selector {
	case NodeExplicit:
		if a.Node < 0 {
			return fmt.Errorf("negative explicit node %d", a.Node)
		}
	case NodeOfTask:
		if a.TaskIdx < 0 {
			return fmt.Errorf("negative action task index %d", a.TaskIdx)
		}
	case NodeWithMOFsOnly:
	default:
		return fmt.Errorf("unknown node selector %d", a.Selector)
	}
	return nil
}

func kindName(k ActionKind) string {
	switch k {
	case FailTask:
		return "FailTask"
	case StopNodeNetwork:
		return "StopNodeNetwork"
	case CrashNode:
		return "CrashNode"
	case SlowNode:
		return "SlowNode"
	case PartitionNode:
		return "PartitionNode"
	case HealNode:
		return "HealNode"
	case FlakyLink:
		return "FlakyLink"
	case DegradeNIC:
		return "DegradeNIC"
	case CrashRack:
		return "CrashRack"
	case CrashTierNode:
		return "CrashTierNode"
	case HotPartition:
		return "HotPartition"
	}
	return fmt.Sprintf("ActionKind(%d)", int(k))
}

// FailTaskAtProgress is a convenience plan: kill task (typ, idx)'s running
// attempt when that task reaches the progress fraction.
func FailTaskAtProgress(typ TaskType, idx int, frac float64) *Plan {
	p := &Plan{}
	return p.Add(
		Trigger{Kind: AtTaskProgress, Task: typ, TaskIdx: idx, Fraction: frac},
		Action{Kind: FailTask, Task: typ, TaskIdx: idx},
	)
}

// FailTasksAtProgress kills the first n tasks of a type when each reaches
// the fraction (the paper's concurrent-failure experiments).
func FailTasksAtProgress(typ TaskType, n int, frac float64) *Plan {
	p := &Plan{}
	for i := 0; i < n; i++ {
		p.Add(
			Trigger{Kind: AtTaskProgress, Task: typ, TaskIdx: i, Fraction: frac},
			Action{Kind: FailTask, Task: typ, TaskIdx: i},
		)
	}
	return p
}

// StopNodeOfTaskAtReduceProgress stops the network of the node hosting the
// given task when the job's reduce phase reaches the fraction.
func StopNodeOfTaskAtReduceProgress(typ TaskType, idx int, frac float64) *Plan {
	p := &Plan{}
	return p.Add(
		Trigger{Kind: AtReducePhaseProgress, Fraction: frac},
		Action{Kind: StopNodeNetwork, Selector: NodeOfTask, Task: typ, TaskIdx: idx},
	)
}

// PartitionNodeOfTaskAtReduceProgress stops the network of the node
// hosting the task when the reduce phase reaches the fraction, healing it
// after healAfter — the transient partition whose fetch retries and
// re-admission the gray-failure model exercises.
func PartitionNodeOfTaskAtReduceProgress(typ TaskType, idx int, frac float64, healAfter time.Duration) *Plan {
	p := &Plan{}
	return p.Add(
		Trigger{Kind: AtReducePhaseProgress, Fraction: frac},
		Action{Kind: PartitionNode, Selector: NodeOfTask, Task: typ, TaskIdx: idx, HealAfter: healAfter},
	)
}

// StopMOFNodeAtJobProgress stops a node that hosts MOFs but no reducer
// when overall job progress reaches the fraction (Fig. 4 / Table II).
func StopMOFNodeAtJobProgress(frac float64) *Plan {
	p := &Plan{}
	return p.Add(
		Trigger{Kind: AtJobProgress, Fraction: frac},
		Action{Kind: StopNodeNetwork, Selector: NodeWithMOFsOnly},
	)
}

// SlowNodeOfTaskAtReduceProgress degrades the disks of the node hosting
// the task to factor of their bandwidth when the reduce phase reaches the
// fraction (the paper's "faulty node" scenario).
func SlowNodeOfTaskAtReduceProgress(typ TaskType, idx int, frac, factor float64) *Plan {
	p := &Plan{}
	return p.Add(
		Trigger{Kind: AtReducePhaseProgress, Fraction: frac},
		Action{Kind: SlowNode, Selector: NodeOfTask, Task: typ, TaskIdx: idx, Factor: factor},
	)
}

// FlakyLinkAtTime makes the (a, b) link flaky at time t: connection
// attempts fail with probability failProb and, when 0 < bwFactor < 1, the
// pair's bandwidth drops to bwFactor of the narrower NIC. The link
// stabilises after healAfter (zero: stays flaky).
func FlakyLinkAtTime(t time.Duration, a, b int, failProb, bwFactor float64, healAfter time.Duration) *Plan {
	p := &Plan{}
	return p.Add(
		Trigger{Kind: AtTime, Time: t},
		Action{Kind: FlakyLink, Selector: NodeExplicit, Node: a, Node2: b,
			FailProb: failProb, Factor: bwFactor, HealAfter: healAfter},
	)
}

// CrashRackAtTime crashes every node of the rack at time t (correlated
// failure).
func CrashRackAtTime(t time.Duration, rack int) *Plan {
	p := &Plan{}
	return p.Add(
		Trigger{Kind: AtTime, Time: t},
		Action{Kind: CrashRack, Rack: rack},
	)
}

// CrashMOFNodeAtJobProgress crashes (process death, local data lost) a
// node that hosts MOFs but no reducer when overall job progress reaches
// the fraction — the harsher sibling of StopMOFNodeAtJobProgress, used
// by the remote-shuffle showdown's map-node-crash matrix.
func CrashMOFNodeAtJobProgress(frac float64) *Plan {
	p := &Plan{}
	return p.Add(
		Trigger{Kind: AtJobProgress, Fraction: frac},
		Action{Kind: CrashNode, Selector: NodeWithMOFsOnly},
	)
}

// CrashTierNodeAtTime kills the shuffle service on tier ordinal ord at
// time t, restarting it empty after healAfter (zero: stays down).
func CrashTierNodeAtTime(t time.Duration, ord int, healAfter time.Duration) *Plan {
	p := &Plan{}
	return p.Add(
		Trigger{Kind: AtTime, Time: t},
		Action{Kind: CrashTierNode, Selector: NodeExplicit, Node: ord, HealAfter: healAfter},
	)
}

// HotPartitionAtTime marks reduce partition part as a shuffle-tier hot
// spot at time t, degrading the primary replica's disks to factor of
// their bandwidth until healAfter elapses (zero: stays hot).
func HotPartitionAtTime(t time.Duration, part int, factor float64, healAfter time.Duration) *Plan {
	p := &Plan{}
	return p.Add(
		Trigger{Kind: AtTime, Time: t},
		Action{Kind: HotPartition, TaskIdx: part, Factor: factor, HealAfter: healAfter},
	)
}

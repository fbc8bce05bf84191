package faults

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestTaskTypeString(t *testing.T) {
	if Map.String() != "map" || Reduce.String() != "reduce" {
		t.Fatalf("TaskType strings: %s / %s", Map, Reduce)
	}
}

func TestFailTaskAtProgress(t *testing.T) {
	p := FailTaskAtProgress(Reduce, 3, 0.7)
	if len(p.Injections) != 1 {
		t.Fatalf("injections = %d, want 1", len(p.Injections))
	}
	inj := p.Injections[0]
	if inj.When.Kind != AtTaskProgress || inj.When.Task != Reduce || inj.When.TaskIdx != 3 || inj.When.Fraction != 0.7 {
		t.Fatalf("trigger = %+v", inj.When)
	}
	if inj.Do.Kind != FailTask || inj.Do.TaskIdx != 3 {
		t.Fatalf("action = %+v", inj.Do)
	}
	if inj.Done {
		t.Fatal("fresh injection must not be Done")
	}
}

func TestFailTasksAtProgress(t *testing.T) {
	p := FailTasksAtProgress(Reduce, 5, 0.5)
	if len(p.Injections) != 5 {
		t.Fatalf("injections = %d, want 5", len(p.Injections))
	}
	seen := map[int]bool{}
	for _, inj := range p.Injections {
		seen[inj.Do.TaskIdx] = true
	}
	for i := 0; i < 5; i++ {
		if !seen[i] {
			t.Fatalf("missing injection for task %d", i)
		}
	}
}

func TestStopNodeOfTask(t *testing.T) {
	p := StopNodeOfTaskAtReduceProgress(Reduce, 0, 0.4)
	inj := p.Injections[0]
	if inj.When.Kind != AtReducePhaseProgress || inj.When.Fraction != 0.4 {
		t.Fatalf("trigger = %+v", inj.When)
	}
	if inj.Do.Kind != StopNodeNetwork || inj.Do.Selector != NodeOfTask {
		t.Fatalf("action = %+v", inj.Do)
	}
}

func TestStopMOFNode(t *testing.T) {
	p := StopMOFNodeAtJobProgress(0.55)
	inj := p.Injections[0]
	if inj.When.Kind != AtJobProgress || inj.Do.Selector != NodeWithMOFsOnly {
		t.Fatalf("plan = %+v / %+v", inj.When, inj.Do)
	}
}

func TestAddChaining(t *testing.T) {
	p := (&Plan{}).
		Add(Trigger{Kind: AtTime}, Action{Kind: CrashNode, Node: 3}).
		Add(Trigger{Kind: AtJobProgress, Fraction: 0.5}, Action{Kind: FailTask})
	if len(p.Injections) != 2 {
		t.Fatalf("chained plan has %d injections, want 2", len(p.Injections))
	}
}

func TestInjectionString(t *testing.T) {
	p := FailTaskAtProgress(Map, 0, 0.25)
	if s := p.Injections[0].String(); !strings.Contains(s, "0.25") {
		t.Fatalf("String() = %q, want fraction included", s)
	}
}

// TestKindName names every ActionKind, and reads a value past the last
// kind as ActionKind(N).
func TestKindName(t *testing.T) {
	for _, tc := range []struct {
		k    ActionKind
		want string
	}{
		{FailTask, "FailTask"},
		{StopNodeNetwork, "StopNodeNetwork"},
		{CrashNode, "CrashNode"},
		{SlowNode, "SlowNode"},
		{PartitionNode, "PartitionNode"},
		{HealNode, "HealNode"},
		{FlakyLink, "FlakyLink"},
		{DegradeNIC, "DegradeNIC"},
		{CrashRack, "CrashRack"},
		{CrashTierNode, "CrashTierNode"},
		{HotPartition, "HotPartition"},
		{HotPartition + 1, "ActionKind(11)"},
	} {
		if got := kindName(tc.k); got != tc.want {
			t.Errorf("kindName(%d) = %q, want %q", int(tc.k), got, tc.want)
		}
	}
}

// validPartition is a well-formed transient partition used as the base
// for the mutation cases below.
func validPartition() *Injection {
	return &Injection{
		When: Trigger{Kind: AtReducePhaseProgress, Fraction: 0.5},
		Do:   Action{Kind: PartitionNode, Selector: NodeOfTask, Task: Reduce, HealAfter: 30 * time.Second},
	}
}

func TestValidateAcceptsFractionEdges(t *testing.T) {
	// Exactly 0.0 and exactly 1.0 are legal trigger fractions: 0.0 fires
	// as soon as the phase exists, 1.0 at its completion boundary.
	for _, frac := range []float64{0.0, 1.0} {
		for _, kind := range []TriggerKind{AtTaskProgress, AtReducePhaseProgress, AtJobProgress} {
			p := (&Plan{}).Add(
				Trigger{Kind: kind, Task: Reduce, Fraction: frac},
				Action{Kind: FailTask, Task: Reduce},
			)
			if err := p.Validate(); err != nil {
				t.Errorf("fraction %v on trigger kind %d rejected: %v", frac, kind, err)
			}
		}
	}
}

func TestValidateRejectsBadTriggers(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Injection)
		want string
	}{
		{"negative time", func(i *Injection) {
			i.When = Trigger{Kind: AtTime, Time: -time.Second}
		}, "negative trigger time"},
		{"fraction below zero", func(i *Injection) { i.When.Fraction = -0.01 }, "outside [0,1]"},
		{"fraction above one", func(i *Injection) { i.When.Fraction = 1.01 }, "outside [0,1]"},
		{"fraction NaN", func(i *Injection) { i.When.Fraction = math.NaN() }, "outside [0,1]"},
		{"negative task index", func(i *Injection) {
			i.When = Trigger{Kind: AtTaskProgress, Task: Map, TaskIdx: -1, Fraction: 0.5}
		}, "negative trigger task index"},
		{"recurrence on progress trigger", func(i *Injection) { i.Every = time.Minute }, "requires an AtTime trigger"},
		{"unknown trigger kind", func(i *Injection) { i.When.Kind = TriggerKind(99) }, "unknown trigger kind"},
	}
	for _, tc := range cases {
		inj := validPartition()
		tc.mut(inj)
		err := (&Plan{Injections: []*Injection{inj}}).Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateRejectsBadActions(t *testing.T) {
	cases := []struct {
		name string
		do   Action
		want string
	}{
		{"FailTask negative index", Action{Kind: FailTask, TaskIdx: -2}, "negative action task index"},
		{"negative HealAfter", Action{Kind: StopNodeNetwork, HealAfter: -time.Second}, "negative HealAfter"},
		{"explicit negative node", Action{Kind: CrashNode, Selector: NodeExplicit, Node: -1}, "negative explicit node"},
		{"NodeOfTask negative index", Action{Kind: StopNodeNetwork, Selector: NodeOfTask, TaskIdx: -1}, "negative action task index"},
		{"unknown selector", Action{Kind: CrashNode, Selector: NodeSelector(42)}, "unknown node selector"},
		{"SlowNode zero factor", Action{Kind: SlowNode, Factor: 0}, "outside (0,1]"},
		{"SlowNode factor above one", Action{Kind: SlowNode, Factor: 1.5}, "outside (0,1]"},
		{"DegradeNIC negative factor", Action{Kind: DegradeNIC, Factor: -0.5}, "outside (0,1]"},
		{"SlowNode NaN factor", Action{Kind: SlowNode, Factor: math.NaN()}, "outside (0,1]"},
		{"DegradeNIC NaN factor", Action{Kind: DegradeNIC, Factor: math.NaN()}, "outside (0,1]"},
		{"PartitionNode without heal", Action{Kind: PartitionNode}, "positive HealAfter"},
		{"FlakyLink non-explicit selector", Action{Kind: FlakyLink, Selector: NodeOfTask, Node2: 1, FailProb: 0.5, Factor: 1}, "explicit endpoints"},
		{"FlakyLink negative endpoint", Action{Kind: FlakyLink, Node: -1, Node2: 1, FailProb: 0.5, Factor: 1}, "negative FlakyLink endpoint"},
		{"FlakyLink equal endpoints", Action{Kind: FlakyLink, Node: 2, Node2: 2, FailProb: 0.5, Factor: 1}, "endpoints must differ"},
		{"FlakyLink probability above one", Action{Kind: FlakyLink, Node: 0, Node2: 1, FailProb: 1.2, Factor: 1}, "probability"},
		{"FlakyLink NaN probability", Action{Kind: FlakyLink, Node: 0, Node2: 1, FailProb: math.NaN(), Factor: 1}, "probability"},
		{"FlakyLink factor above one", Action{Kind: FlakyLink, Node: 0, Node2: 1, FailProb: 0.5, Factor: 1.1}, "bandwidth factor"},
		{"FlakyLink NaN factor", Action{Kind: FlakyLink, Node: 0, Node2: 1, FailProb: 0.5, Factor: math.NaN()}, "bandwidth factor"},
		{"HotPartition NaN factor", Action{Kind: HotPartition, TaskIdx: 0, Factor: math.NaN()}, "HotPartition factor"},
		{"CrashRack negative rack", Action{Kind: CrashRack, Rack: -1}, "negative rack"},
		{"unknown action kind", Action{Kind: ActionKind(77)}, "unknown action kind"},
	}
	for _, tc := range cases {
		p := (&Plan{}).Add(Trigger{Kind: AtTime, Time: time.Minute}, tc.do)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateRecurrenceRules(t *testing.T) {
	do := Action{Kind: FailTask, Task: Map}
	at := Trigger{Kind: AtTime, Time: time.Minute}
	if err := (&Plan{}).AddRecurring(at, do, 30*time.Second, 3).Validate(); err != nil {
		t.Errorf("legal recurrence rejected: %v", err)
	}
	if err := (&Plan{}).AddRecurring(at, do, -time.Second, 0).Validate(); err == nil ||
		!strings.Contains(err.Error(), "negative recurrence interval") {
		t.Errorf("negative Every: err = %v", err)
	}
	if err := (&Plan{}).AddRecurring(at, do, -time.Second, -1).Validate(); err == nil ||
		!strings.Contains(err.Error(), "negative recurrence") {
		t.Errorf("negative Times: err = %v", err)
	}
	bare := &Plan{Injections: []*Injection{{When: at, Do: do, Times: 2}}}
	if err := bare.Validate(); err == nil || !strings.Contains(err.Error(), "without a recurrence interval") {
		t.Errorf("Times without Every: err = %v", err)
	}
}

func TestMaxFirings(t *testing.T) {
	cases := []struct {
		every time.Duration
		times int
		want  int
	}{
		{0, 0, 1},           // one-shot
		{time.Minute, 0, 2}, // recurring, default twice
		{time.Minute, 5, 5}, // explicit bound
	}
	for _, tc := range cases {
		inj := &Injection{Every: tc.every, Times: tc.times}
		if got := inj.MaxFirings(); got != tc.want {
			t.Errorf("MaxFirings(every=%v times=%d) = %d, want %d", tc.every, tc.times, got, tc.want)
		}
	}
}

func TestNilPlanValidates(t *testing.T) {
	var p *Plan
	if err := p.Validate(); err != nil {
		t.Fatalf("nil plan: %v", err)
	}
}

func TestGrayFailureHelpersValidate(t *testing.T) {
	plans := map[string]*Plan{
		"partition": PartitionNodeOfTaskAtReduceProgress(Reduce, 0, 0.5, 45*time.Second),
		"flaky":     FlakyLinkAtTime(time.Minute, 2, 7, 0.5, 0.6, 90*time.Second),
		"rack":      CrashRackAtTime(2*time.Minute, 1),
	}
	for name, p := range plans {
		if err := p.Validate(); err != nil {
			t.Errorf("%s helper builds invalid plan: %v", name, err)
		}
	}
	if inj := plans["partition"].Injections[0]; inj.Do.Kind != PartitionNode || inj.Do.HealAfter != 45*time.Second {
		t.Errorf("partition helper: %+v", inj.Do)
	}
	if inj := plans["flaky"].Injections[0]; inj.Do.Node != 2 || inj.Do.Node2 != 7 || inj.Do.FailProb != 0.5 {
		t.Errorf("flaky helper: %+v", inj.Do)
	}
	if inj := plans["rack"].Injections[0]; inj.Do.Rack != 1 {
		t.Errorf("rack helper: %+v", inj.Do)
	}
}

func TestPlanClone(t *testing.T) {
	if (*Plan)(nil).Clone() != nil {
		t.Fatal("nil plan must clone to nil")
	}
	p := FailTasksAtProgress(Reduce, 2, 0.5)
	p.Injections[0].Done = true
	p.Injections[0].Fired = 3
	c := p.Clone()
	if len(c.Injections) != 2 {
		t.Fatalf("clone has %d injections, want 2", len(c.Injections))
	}
	if c.Injections[0] == p.Injections[0] {
		t.Fatal("clone shares injection pointers with the original")
	}
	if c.Injections[0].Done || c.Injections[0].Fired != 0 {
		t.Fatal("clone must reset runtime state (Done/Fired)")
	}
	if c.Injections[1].When != p.Injections[1].When || c.Injections[1].Do != p.Injections[1].Do {
		t.Fatal("clone must preserve trigger and action")
	}
}

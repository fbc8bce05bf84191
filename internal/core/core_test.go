package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"alm/internal/merge"
	"alm/internal/mr"
	"alm/internal/topology"
)

// TestValidateRejectsMismatchedPositions: a well-formed reduce record
// validates; one with fewer positions than segments does not.
func TestValidateRejectsMismatchedPositions(t *testing.T) {
	rec := &LogRecord{
		TaskIdx: 3, AttemptID: "r_003_1", Seq: 7, Stage: StageReduce,
		SegmentPaths:          []string{"seg.out", "merged-1.out"},
		Positions:             merge.Positions{12, 0},
		ProcessedLogicalBytes: 1 << 30,
		ProcessedRealRecords:  120,
		FlushedOutputLogical:  1 << 20,
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	rec.Positions = merge.Positions{1}
	if err := rec.Validate(); err == nil {
		t.Fatal("expected validation error for positions/paths mismatch")
	}
}

func TestNewerOrdering(t *testing.T) {
	shuffle5 := &LogRecord{Stage: StageShuffle, Seq: 5}
	shuffle9 := &LogRecord{Stage: StageShuffle, Seq: 9}
	reduce1 := &LogRecord{Stage: StageReduce, Seq: 1}
	if !shuffle5.Newer(nil) {
		t.Fatal("any record beats nil")
	}
	if !shuffle9.Newer(shuffle5) || shuffle5.Newer(shuffle9) {
		t.Fatal("same-stage ordering by seq broken")
	}
	if !reduce1.Newer(shuffle9) {
		t.Fatal("later stage must supersede earlier stage")
	}
}

type fakeView struct {
	stage    Stage
	mofs     int
	paths    []string
	pos      []int
	procured int64
}

func (f *fakeView) Stage() Stage                 { return f.stage }
func (f *fakeView) FetchedMOFs() int             { return f.mofs }
func (f *fakeView) SegmentPaths() []string       { return f.paths }
func (f *fakeView) ReducePositions() []int       { return f.pos }
func (f *fakeView) ProcessedLogicalBytes() int64 { return f.procured }
func (f *fakeView) ProcessedRealRecords() int    { return 9 }
func (f *fakeView) ProcessedGroups() int         { return 4 }
func (f *fakeView) FlushedOutputLogical() int64  { return 5 }
func (f *fakeView) FlushedOutputRecords() int    { return 2 }

func TestSnapshotPerStageFields(t *testing.T) {
	v := &fakeView{stage: StageShuffle, mofs: 2, paths: []string{"seg.out"}}
	rec := Snapshot(v, 0, "r_000_0", 1)
	if rec.FetchedMOFs != 2 {
		t.Fatalf("shuffle snapshot missing fields: %+v", rec)
	}
	if rec.ProcessedRealRecords != 0 {
		t.Fatal("shuffle snapshot must not carry reduce fields")
	}

	v.stage = StageMerge
	rec = Snapshot(v, 0, "r_000_0", 2)
	if rec.FetchedMOFs != 0 || len(rec.SegmentPaths) != 1 {
		t.Fatalf("merge snapshot fields wrong: %+v", rec)
	}

	v.stage = StageReduce
	v.pos = []int{3}
	v.procured = 100
	rec = Snapshot(v, 0, "r_000_0", 3)
	if len(rec.Positions) != 1 || rec.ProcessedLogicalBytes != 100 || rec.FlushedOutputRecords != 2 {
		t.Fatalf("reduce snapshot fields wrong: %+v", rec)
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
}

// ---- Algorithm 1 ----

type fakeSched struct {
	attemptsOnNode map[string]int
	running        map[int]int
	fcm            int
}

func (f *fakeSched) AttemptsOnNode(r int, n topology.NodeID) int {
	return f.attemptsOnNode[fmt.Sprintf("%d/%d", r, n)]
}
func (f *fakeSched) RunningAttempts(r int) int { return f.running[r] }
func (f *fakeSched) FCMTasksInJob() int        { return f.fcm }

func kinds(actions []Action) []ActionKind {
	out := make([]ActionKind, len(actions))
	for i, a := range actions {
		out[i] = a.Kind
	}
	return out
}

func TestAlgorithm1NodeDead(t *testing.T) {
	view := &fakeSched{attemptsOnNode: map[string]int{}, running: map[int]int{5: 0}}
	r := FailureReport{
		SourceNode: 3, NodeAlive: false,
		LostMOFMaps:   []int{10, 11},
		FailedReduces: []int{5},
	}
	actions := Algorithm1(r, view, DefaultSFMOptions())
	got := kinds(actions)
	want := []ActionKind{ActionRerunMap, ActionRerunMap, ActionSpeculativeFCM}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("actions = %v, want %v", got, want)
	}
	for _, a := range actions {
		if a.Kind == ActionRerunMap && !a.HighPrio {
			t.Fatal("map regeneration must be high priority (Algorithm 1 line 6)")
		}
	}
}

func TestAlgorithm1NodeAliveRelaunchesLocally(t *testing.T) {
	view := &fakeSched{attemptsOnNode: map[string]int{}, running: map[int]int{2: 0}}
	r := FailureReport{SourceNode: 7, NodeAlive: true, FailedReduces: []int{2}}
	actions := Algorithm1(r, view, DefaultSFMOptions())
	got := kinds(actions)
	want := []ActionKind{ActionRelaunchLocal, ActionSpeculativeFCM}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("actions = %v, want %v", got, want)
	}
	if actions[0].Node != 7 {
		t.Fatalf("local relaunch on node %d, want 7", actions[0].Node)
	}
}

func TestAlgorithm1LimitLocal(t *testing.T) {
	// LimitLocal is 2 (the failed original + one retry): with two
	// attempts already on the node, no further local relaunch.
	view := &fakeSched{attemptsOnNode: map[string]int{"2/7": 2}, running: map[int]int{2: 0}}
	r := FailureReport{SourceNode: 7, NodeAlive: true, FailedReduces: []int{2}}
	actions := Algorithm1(r, view, DefaultSFMOptions())
	for _, a := range actions {
		if a.Kind == ActionRelaunchLocal {
			t.Fatal("limit_local reached: no further local relaunch allowed")
		}
	}
}

func TestAlgorithm1FCMCap(t *testing.T) {
	opt := DefaultSFMOptions()
	opt.FCMCap = 0
	view := &fakeSched{attemptsOnNode: map[string]int{}, running: map[int]int{1: 0, 2: 0}, fcm: 0}
	r := FailureReport{SourceNode: 1, NodeAlive: false, FailedReduces: []int{1, 2}}
	actions := Algorithm1(r, view, opt)
	got := kinds(actions)
	// First reduce takes the single FCM budget slot (<= cap with cap 0
	// means fcmInFlight 0 <= 0), second falls back to regular mode.
	want := []ActionKind{ActionSpeculativeFCM, ActionSpeculativeRegular}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("actions = %v, want %v", got, want)
	}
}

func TestAlgorithm1NoSpeculationWhenEnoughAttempts(t *testing.T) {
	view := &fakeSched{attemptsOnNode: map[string]int{}, running: map[int]int{4: 3}}
	r := FailureReport{SourceNode: 0, NodeAlive: false, FailedReduces: []int{4}}
	actions := Algorithm1(r, view, DefaultSFMOptions())
	if len(actions) != 0 {
		t.Fatalf("with 3 running attempts expected no actions, got %v", actions)
	}
}

func TestAlgorithm1Ablations(t *testing.T) {
	view := &fakeSched{attemptsOnNode: map[string]int{}, running: map[int]int{0: 0}}
	r := FailureReport{SourceNode: 0, NodeAlive: false, FailedMaps: []int{1}, FailedReduces: []int{0}}
	opt := DefaultSFMOptions()
	opt.ProactiveMapRegen = false
	actions := Algorithm1(r, view, opt)
	for _, a := range actions {
		if a.Kind == ActionRerunMap {
			t.Fatal("map regen disabled but action emitted")
		}
	}
	opt = DefaultSFMOptions()
	opt.SpeculativeRecovery = false
	actions = Algorithm1(r, view, opt)
	for _, a := range actions {
		if a.Kind == ActionSpeculativeFCM || a.Kind == ActionSpeculativeRegular {
			t.Fatal("speculation disabled but action emitted")
		}
	}
}

func TestAlgorithm1DedupsMapLists(t *testing.T) {
	view := &fakeSched{attemptsOnNode: map[string]int{}, running: map[int]int{}}
	r := FailureReport{SourceNode: 0, NodeAlive: false, FailedMaps: []int{5}, LostMOFMaps: []int{5, 6}}
	actions := Algorithm1(r, view, DefaultSFMOptions())
	count := 0
	for _, a := range actions {
		if a.Kind == ActionRerunMap {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("map rerun actions = %d, want 2 (5 deduped)", count)
	}
}

// ---- FCM planning ----

func seg(node int, keys ...string) PartitionInput {
	recs := make([]mr.Record, len(keys))
	for i, k := range keys {
		recs[i] = mr.Record{Key: k, Value: fmt.Sprintf("n%d", node)}
	}
	return PartitionInput{
		MapID:   node*10 + len(keys),
		Node:    topology.NodeID(node),
		Segment: merge.NewSegment("s", mr.DefaultComparator, recs, int64(100*len(keys)), int64(len(keys))),
	}
}

func TestPlanFCMGroupsByNode(t *testing.T) {
	inputs := []PartitionInput{seg(2, "d", "a"), seg(1, "c"), seg(2, "b")}
	sources := PlanFCM(mr.DefaultComparator, inputs)
	if len(sources) != 2 {
		t.Fatalf("sources = %d, want 2 (two nodes)", len(sources))
	}
	if sources[0].Node != 1 || sources[1].Node != 2 {
		t.Fatalf("sources not in node order: %v %v", sources[0].Node, sources[1].Node)
	}
	n2 := sources[1]
	if n2.LogicalBytes != 300 {
		t.Fatalf("node 2 supplies %d bytes, want 300", n2.LogicalBytes)
	}
	if !n2.LocalMPQ.Sorted(mr.DefaultComparator) || len(n2.LocalMPQ.Records) != 3 {
		t.Fatalf("Local-MPQ not a sorted pre-merge: %v", n2.LocalMPQ.Records)
	}
}

func TestGlobalMPQEquivalence(t *testing.T) {
	inputs := []PartitionInput{seg(0, "b", "e"), seg(1, "a", "d"), seg(2, "c")}
	sources := PlanFCM(mr.DefaultComparator, inputs)
	globals := GlobalMPQSegments(sources)
	mpq := merge.NewMPQ(mr.DefaultComparator, globals, nil)
	var got []string
	for {
		r, ok := mpq.Next()
		if !ok {
			break
		}
		got = append(got, r.Key)
	}
	want := []string{"a", "b", "c", "d", "e"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("global merge = %v, want %v", got, want)
	}
	if TotalLogicalBytes(sources) != 500 {
		t.Fatalf("total supply = %d, want 500", TotalLogicalBytes(sources))
	}
}

// Property: FCM pre-merge + global merge yields the same sorted record
// multiset as merging all partitions directly (collective merging is
// semantics-preserving).
func TestQuickFCMEquivalence(t *testing.T) {
	f := func(seed int64, nParts uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nParts%6) + 1
		var inputs []PartitionInput
		var direct []*merge.Segment
		for i := 0; i < n; i++ {
			var recs []mr.Record
			for j := 0; j < rng.Intn(8); j++ {
				recs = append(recs, mr.Record{Key: fmt.Sprintf("k%02d", rng.Intn(30)), Value: fmt.Sprint(i, j)})
			}
			s := merge.NewSegment(fmt.Sprint(i), mr.DefaultComparator, recs, int64(len(recs)*10), int64(len(recs)))
			inputs = append(inputs, PartitionInput{MapID: i, Node: topology.NodeID(rng.Intn(3)), Segment: s})
			direct = append(direct, s)
		}
		want := merge.MergeSegments("direct", mr.DefaultComparator, direct)
		sources := PlanFCM(mr.DefaultComparator, inputs)
		got := merge.MergeSegments("fcm", mr.DefaultComparator, GlobalMPQSegments(sources))
		if got.LogicalBytes != want.LogicalBytes || len(got.Records) != len(want.Records) {
			return false
		}
		for i := range got.Records {
			if got.Records[i].Key != want.Records[i].Key {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(14))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

package engine

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"alm/internal/core"
	"alm/internal/faults"
	"alm/internal/mr"
	"alm/internal/sim"
	"alm/internal/workloads"
)

// restoreCase is one input of the restore search: a 4 GB one-reducer job
// on the paper testbed whose reducer 0 is failed (FailTask) at virtual
// time first and again gap later. Each failure makes the next attempt
// restore whatever the mode keeps: ALG's local log, a checkpoint image,
// the HDFS reduce log, or nothing.
type restoreCase struct {
	terasort   bool
	mode       Mode
	checkpoint bool
	first, gap time.Duration
}

func (c restoreCase) String() string {
	w := "wordcount"
	if c.terasort {
		w = "terasort"
	}
	return fmt.Sprintf("%s/%s/ckpt=%v/%v+%v", w, c.mode, c.checkpoint, c.first, c.gap)
}

func (c restoreCase) spec() JobSpec {
	w := workloads.Wordcount()
	if c.terasort {
		w = workloads.Terasort()
	}
	spec := JobSpec{Workload: w, InputBytes: 4 << 30, NumReduces: 1, Mode: c.mode, Seed: 11}
	spec.Checkpoint.Enabled = c.checkpoint
	return spec
}

func (c restoreCase) plan() *faults.Plan {
	fail := faults.Action{Kind: faults.FailTask, Task: faults.Reduce, TaskIdx: 0}
	p := &faults.Plan{}
	p.Add(faults.Trigger{Kind: faults.AtTime, Time: c.first}, fail)
	p.Add(faults.Trigger{Kind: faults.AtTime, Time: c.first + c.gap}, fail)
	return p
}

// restoreOracle memoises the fault-free output of each case's spec.
type restoreOracle map[string][]mr.Record

// check runs c, one event at a time, and fails t if the job completed
// with output other than the fault-free run's, or if after some event a
// running attempt breaks a fact every restore must keep (restoredState).
// A job that did not complete is not checked for output: the property
// is that a restore never yields wrong output, not that every schedule
// of failures is survivable.
func (o restoreOracle) check(t *testing.T, c restoreCase) (completed, wrong bool) {
	t.Helper()
	spec := c.spec()
	key := restoreCase{terasort: c.terasort, mode: c.mode, checkpoint: c.checkpoint}.String()
	want, ok := o[key]
	if !ok {
		want = mustRun(t, spec, paperCluster(), nil).Output
		o[key] = want
	}
	eng, job := newSteppingJob(t, spec, c.plan())
	until := sim.Time(paperCluster().defaulted().MaxVirtualTime)
	for eng.Pending() && !job.Finished() && eng.Now() <= until {
		eng.Step()
		if err := restoredState(job); err != nil {
			t.Errorf("%v: at %v: %v", c, eng.Now(), err)
			return false, true
		}
	}
	res := job.Result()
	if !res.Completed {
		return false, false
	}
	if !slices.Equal(res.Output, want) {
		t.Errorf("%v: completed with %d output records that differ from the fault-free run's %d",
			c, len(res.Output), len(want))
		return true, true
	}
	return true, false
}

// restoredState checks the two facts about a running reduce attempt
// that hold however it started: one in the reduce stage holds every map,
// so it reports its shuffle done, and one of an ALG mode that has not
// finished keeps its ALG timer armed, so it goes on logging after any
// restore.
func restoredState(job *Job) error {
	for _, ex := range job.am.reduceExecs {
		r, ok := ex.(*reduceExec)
		if !ok || r.dead || r.stage == core.StageDone {
			continue
		}
		if r.stage == core.StageReduce && r.copiedCount != len(r.copied) {
			return fmt.Errorf("%s reduces holding %d of %d maps (progress %.2f)",
				r.a.id, r.copiedCount, len(r.copied), r.progress())
		}
		if job.Spec.Mode.ALGEnabled() && !r.algTimer.tm.Active() {
			return fmt.Errorf("%s runs in stage %v with no ALG snapshot armed", r.a.id, r.stage)
		}
	}
	return nil
}

var restoreModes = []Mode{ModeYARN, ModeALG, ModeSFM, ModeALM}

// TestRestoreGrid fails reducer 0 twice at every point of a grid and
// requires every completed run to produce the fault-free output, and
// every run to keep restoredState after each event: 2 workloads × 4
// modes × checkpointing off/on × 26 first-failure times (20–195 s, every
// 7 s) × gaps of 9, 23 and 41 s, 1,248 runs. A restore that marks maps
// fetched without holding their data loses records; one that holds data
// without marking it fetches the maps again and counts them twice.
func TestRestoreGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("1,248 simulated jobs")
	}
	oracle := restoreOracle{}
	runs, completed, wrong := 0, 0, 0
	for _, terasort := range []bool{false, true} {
		for _, mode := range restoreModes {
			for _, ckpt := range []bool{false, true} {
				for first := 20 * time.Second; first <= 195*time.Second; first += 7 * time.Second {
					for _, gap := range []time.Duration{9 * time.Second, 23 * time.Second, 41 * time.Second} {
						ok, bad := oracle.check(t, restoreCase{terasort, mode, ckpt, first, gap})
						runs++
						if ok {
							completed++
						}
						if bad {
							wrong++
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs, %d completed, %d wrong", runs, completed, wrong)
}

// FuzzRestore searches the same space as TestRestoreGrid with free
// failure times. Input: the workload (even: wordcount, odd: terasort),
// the mode (mod 4: yarn, alg, sfm, alm), checkpointing on or off, the
// first failure's virtual time (seconds, mod 240) and the gap to the
// second (seconds, mod 120). The checked-in corpus
// (testdata/fuzz/FuzzRestore) holds the shapes that once completed with
// wrong output: an ALG merge-stage restore that refetched maps its
// restored segments held, checkpoint images that claimed maps whose data
// sat in an in-flight spill or merge, and a second image restore on
// another node that lost the first node's segment lists. It also holds
// the two shapes that broke restoredState: a reduce-stage local restore
// that held no map (alg-reduce-72s-holds-every-map) and an image restore
// that left ALG unarmed (alg-ckpt-76s-logs-after-image).
func FuzzRestore(f *testing.F) {
	oracle := restoreOracle{}
	f.Fuzz(func(t *testing.T, workload, mode uint8, ckpt bool, first, gap uint16) {
		c := restoreCase{
			terasort:   workload%2 == 1,
			mode:       restoreModes[int(mode)%len(restoreModes)],
			checkpoint: ckpt,
			first:      time.Duration(first%240) * time.Second,
			gap:        time.Duration(gap%120) * time.Second,
		}
		oracle.check(t, c)
	})
}

// failReducerAt is a plan that fails reducer 0 once, at virtual time at.
func failReducerAt(at time.Duration) *faults.Plan {
	return (&faults.Plan{}).Add(faults.Trigger{Kind: faults.AtTime, Time: at},
		faults.Action{Kind: faults.FailTask, Task: faults.Reduce, TaskIdx: 0})
}

// restoreCounters lists the counters a reduce attempt's restore adds to.
var restoreCounters = []string{"alg.restores.local", "alg.restores.hdfs", "ckpt.restores"}

// stepUntilRestore fires events until some attempt of reducer 0 has
// restored saved state, and returns that attempt, just begun; nil if the
// job finished first.
func stepUntilRestore(eng *sim.Engine, job *Job) *reduceExec {
	count := func() (n int64) {
		for _, k := range restoreCounters {
			n += job.result.Counters[k]
		}
		return n
	}
	for eng.Pending() && !job.Finished() {
		before := count()
		eng.Step()
		if count() == before {
			continue
		}
		for _, ex := range job.am.reduceExecs {
			if r, ok := ex.(*reduceExec); ok && !r.dead && r.t.idx == 0 {
				return r
			}
		}
	}
	return nil
}

// TestReduceStageRestoreHoldsEveryMap: reducer 0 of a 4 GB Wordcount
// ALG job fails once between 60 and 84 s, in its reduce stage. The retry
// restores the reduce stage from its node-local log, or with
// checkpointing from the image, and must hold every map: its shuffle is
// done, so it reports at least the two thirds of progress that the
// shuffle and the merge account for.
func TestReduceStageRestoreHoldsEveryMap(t *testing.T) {
	for _, ckpt := range []bool{false, true} {
		reduceStage := 0
		for at := 60 * time.Second; at <= 84*time.Second; at += 4 * time.Second {
			spec := restoreCase{mode: ModeALG, checkpoint: ckpt}.spec()
			eng, job := newSteppingJob(t, spec, failReducerAt(at))
			r := stepUntilRestore(eng, job)
			if r == nil || r.stage != core.StageReduce {
				continue
			}
			reduceStage++
			if r.copiedCount != len(r.copied) || r.progress() < 2.0/3 {
				t.Errorf("ckpt=%v, failure at %v: the restored attempt holds %d of %d maps and reports progress %.2f",
					ckpt, at, r.copiedCount, len(r.copied), r.progress())
			}
		}
		if reduceStage == 0 {
			t.Errorf("ckpt=%v: no failure from 60 to 84 s led to a reduce-stage restore", ckpt)
		}
	}
}

// TestALGLogsAfterImageRestore: with checkpointing on, reducer 0 of a
// 4 GB Wordcount ALG job fails at 72 or 76 s and its retry restores
// from the checkpoint image. It lives on for more than one ALG interval
// and must take ALG snapshots, so that a later migration has a log newer
// than the image to resume from.
func TestALGLogsAfterImageRestore(t *testing.T) {
	for _, at := range []time.Duration{72 * time.Second, 76 * time.Second} {
		spec := restoreCase{mode: ModeALG, checkpoint: true}.spec()
		eng, job := newSteppingJob(t, spec, failReducerAt(at))
		r := stepUntilRestore(eng, job)
		if r == nil || job.result.Counters["ckpt.restores"] != 1 {
			t.Fatalf("failure at %v: no image restore", at)
		}
		restoredAt, snapshots := eng.Now(), job.result.Counters["alg.snapshots"]
		for eng.Pending() && !job.Finished() && !r.dead && r.stage != core.StageDone {
			eng.Step()
		}
		interval := sim.Time(job.Spec.ALG.Interval)
		if lived := eng.Now() - restoredAt; lived <= interval {
			t.Fatalf("failure at %v: the restored attempt lived %v, not past one ALG interval", at, lived)
		}
		if got := job.result.Counters["alg.snapshots"]; got <= snapshots {
			t.Errorf("failure at %v: alg.snapshots %d at the image restore and %d when the attempt ended",
				at, snapshots, got)
		}
	}
}

// TestMissingImageAppliesNothing: reducer 0 of a 4 GB Terasort job with
// checkpointing fails once its image holds shuffled segments, and the
// image's DFS file is gone, so the read cannot start. The retry must
// start clean, as if there were no image: in the shuffle stage, holding
// no map and no segment, with no cursor. The job must still produce the
// fault-free output.
func TestMissingImageAppliesNothing(t *testing.T) {
	spec := restoreCase{terasort: true, mode: ModeYARN, checkpoint: true}.spec()
	free := mustRun(t, spec, paperCluster(), nil)
	eng, job := newSteppingJob(t, spec, nil)
	var failed *attempt
	for eng.Pending() && !job.Finished() && failed == nil {
		eng.Step()
		img := job.checkpoints[0]
		a := job.am.task(faults.Reduce, 0).runningAttempt()
		if img == nil || len(img.onDisk)+len(img.inMem) == 0 || a == nil {
			continue
		}
		missing := *img
		missing.path += ".missing"
		job.checkpoints[0] = &missing
		job.am.attemptFailed(a, "injected failure with the image's file gone")
		failed = a
	}
	if failed == nil {
		t.Fatal("no image with shuffled segments was committed")
	}
	var r *reduceExec
	for eng.Pending() && !job.Finished() && r == nil {
		eng.Step()
		for _, ex := range job.am.reduceExecs {
			if rx, ok := ex.(*reduceExec); ok && !rx.dead && rx.a != failed {
				r = rx
			}
		}
	}
	if r == nil {
		t.Fatal("no retry began")
	}
	if r.stage != core.StageShuffle || r.copiedCount != 0 || len(r.onDisk) != 0 || len(r.inMem) != 0 || r.cursor != nil {
		t.Fatalf("the retry began in stage %v holding %d maps, %d segments on disk and %d in memory, cursor %v",
			r.stage, r.copiedCount, len(r.onDisk), len(r.inMem), r.cursor != nil)
	}
	for eng.Pending() && !job.Finished() {
		eng.Step()
	}
	res := job.Result()
	if !res.Completed {
		t.Fatalf("job failed: %s", res.FailReason)
	}
	if !slices.Equal(res.Output, free.Output) {
		t.Fatalf("recovered output (%d records) differs from the failure-free run (%d)",
			len(res.Output), len(free.Output))
	}
}

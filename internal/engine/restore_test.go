package engine

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"alm/internal/faults"
	"alm/internal/mr"
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

// check runs c and fails t if the job completed with output other than
// the fault-free run's. A job that did not complete is not checked: the
// property is that a restore never yields wrong output, not that every
// schedule of failures is survivable.
func (o restoreOracle) check(t *testing.T, c restoreCase) (completed, wrong bool) {
	t.Helper()
	spec := c.spec()
	key := restoreCase{terasort: c.terasort, mode: c.mode, checkpoint: c.checkpoint}.String()
	want, ok := o[key]
	if !ok {
		want = mustRun(t, spec, paperCluster(), nil).Output
		o[key] = want
	}
	res, err := Run(spec, paperCluster(), WithPlan(c.plan()))
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
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

var restoreModes = []Mode{ModeYARN, ModeALG, ModeSFM, ModeALM}

// TestRestoreGrid fails reducer 0 twice at every point of a grid and
// requires every completed run to produce the fault-free output: 2
// workloads × 4 modes × checkpointing off/on × 26 first-failure times
// (20–195 s, every 7 s) × gaps of 9, 23 and 41 s, 1,248 runs. A restore
// that marks maps fetched without holding their data loses records; one
// that holds data without marking it fetches the maps again and counts
// them twice.
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
	t.Logf("%d runs, %d completed, %d with wrong output", runs, completed, wrong)
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
// another node that lost the first node's segment lists.
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

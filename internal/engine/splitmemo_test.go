package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"alm/internal/engine"
	"alm/internal/faults"
	"alm/internal/mr"
	"alm/internal/sweep"
	"alm/internal/trace"
	"alm/internal/workloads"
)

// A workload builds each split's map output once per geometry and hands
// every later map attempt a view of it (Workload.MapOutput). These tests
// pin that the sharing is invisible: a job on a workload that earlier
// jobs already ran is the job on a fresh workload.

var memoModes = []engine.Mode{engine.ModeYARN, engine.ModeALG, engine.ModeSFM, engine.ModeALM}

// memoSpec is a small job whose fault plan stops a MOF-only node, so
// every mode re-executes maps whose output was lost.
func memoSpec(w *workloads.Workload, mode engine.Mode, seed int64, reduces int) engine.JobSpec {
	return engine.JobSpec{
		Workload:   w,
		InputBytes: 8 * mr.DefaultConfig().BlockSizeBytes,
		NumReduces: reduces,
		Mode:       mode,
		Seed:       seed,
	}
}

func memoPlan() *faults.Plan { return faults.StopMOFNodeAtJobProgress(0.55) }

func runMemo(t *testing.T, spec engine.JobSpec) engine.Result {
	t.Helper()
	res, err := engine.Run(spec, engine.DefaultClusterSpec(), engine.WithPlan(memoPlan()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("job failed: %s", res.FailReason)
	}
	return res
}

func mapReruns(res engine.Result) int {
	n := 0
	for _, e := range res.Trace.Events {
		if e.Kind == trace.KindMapRescheduled {
			n++
		}
	}
	return n
}

// sameRun fails unless got is want: output, counters, failure
// accounting and event-loop counts.
func sameRun(t *testing.T, label string, got, want engine.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Output, want.Output) {
		t.Errorf("%s: output differs (%d vs %d records)", label, len(got.Output), len(want.Output))
	}
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Errorf("%s: counters differ:\n got %v\nwant %v", label, got.Counters, want.Counters)
	}
	if got.Events != want.Events {
		t.Errorf("%s: events %+v, want %+v", label, got.Events, want.Events)
	}
	if got.Duration != want.Duration || got.MapAttemptFailures != want.MapAttemptFailures ||
		got.ReduceAttemptFailures != want.ReduceAttemptFailures {
		t.Errorf("%s: duration/failures %v/%d/%d, want %v/%d/%d", label,
			got.Duration, got.MapAttemptFailures, got.ReduceAttemptFailures,
			want.Duration, want.MapAttemptFailures, want.ReduceAttemptFailures)
	}
}

// checkMemo fails unless every split the shared workload holds equals a
// fresh build: a write into a Segment's records would land in the memo.
func checkMemo(t *testing.T, shared *workloads.Workload, spec engine.JobSpec) {
	t.Helper()
	spec, err := spec.Defaulted()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := workloads.ByName(shared.Name)
	if err != nil {
		t.Fatal(err)
	}
	maps := int(spec.InputBytes / spec.Conf.BlockSizeBytes)
	for s := 0; s < maps; s++ {
		got := shared.MapOutput(spec.Seed, s, spec.NumReduces)
		want := fresh.MapOutput(spec.Seed, s, spec.NumReduces)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s split %d: memo differs from a fresh build", shared.Name, s)
		}
	}
}

func TestSharedWorkloadMatchesFresh(t *testing.T) {
	for _, name := range []string{"terasort", "wordcount", "secondarysort"} {
		shared, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range memoModes {
			fresh, _ := workloads.ByName(name)
			want := runMemo(t, memoSpec(fresh, mode, 11, 4))
			if mapReruns(want) == 0 {
				t.Fatalf("%s/%v: the plan re-executed no map", name, mode)
			}
			for rep := 1; rep <= 2; rep++ {
				spec := memoSpec(shared, mode, 11, 4)
				sameRun(t, fmt.Sprintf("%s/%v shared run %d", name, mode, rep), runMemo(t, spec), want)
				checkMemo(t, shared, spec)
			}
		}
	}
}

// TestSharedWorkloadGeometrySwap alternates the seed and the reducer
// count on one workload, so each job replaces the splits the previous
// one left.
func TestSharedWorkloadGeometrySwap(t *testing.T) {
	geos := []struct {
		seed    int64
		reduces int
	}{{11, 4}, {12, 4}, {11, 3}, {11, 4}, {12, 3}, {11, 4}}
	for _, name := range []string{"terasort", "wordcount", "secondarysort"} {
		shared, _ := workloads.ByName(name)
		for i, g := range geos {
			mode := memoModes[i%len(memoModes)]
			fresh, _ := workloads.ByName(name)
			want := runMemo(t, memoSpec(fresh, mode, g.seed, g.reduces))
			spec := memoSpec(shared, mode, g.seed, g.reduces)
			sameRun(t, fmt.Sprintf("%s/%v seed %d reduces %d", name, mode, g.seed, g.reduces), runMemo(t, spec), want)
			checkMemo(t, shared, spec)
		}
	}
}

// TestSharedWorkloadParallelSweep runs cases of mixed geometry that
// share one workload per benchmark on 4 sweep workers. Under the race
// detector (`make race`) it checks the memo's locking; everywhere it
// checks that the results equal a one-worker sweep's.
func TestSharedWorkloadParallelSweep(t *testing.T) {
	run := func(workers int) []engine.Result {
		wls := []*workloads.Workload{workloads.Terasort(), workloads.Wordcount(), workloads.Secondarysort()}
		var specs []engine.JobSpec
		// Each run of 4 consecutive cases, the ones the workers pick up
		// together, shares one workload across two seeds and two reducer
		// counts.
		for i := 0; i < 24; i++ {
			specs = append(specs, memoSpec(wls[i/4%3], memoModes[i%4], int64(11+i%2), 3+i/2%2))
		}
		out := make([]engine.Result, len(specs))
		err := sweep.Do(context.Background(), len(specs), workers, func(i int) error {
			res, err := engine.Run(specs[i], engine.DefaultClusterSpec(), engine.WithPlan(memoPlan()), engine.WithoutTrace())
			out[i] = res
			return err
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want, got := run(1), run(4)
	for i := range want {
		sameRun(t, fmt.Sprintf("case %d", i), got[i], want[i])
	}
}

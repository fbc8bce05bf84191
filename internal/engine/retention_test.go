package engine

import (
	"runtime"
	"testing"
	"weak"

	"alm/internal/faults"
	"alm/internal/metrics"
	"alm/internal/trace"
	"alm/internal/workloads"
)

// countingObserver counts the events a run streams to it.
type countingObserver struct{ events int }

func (o *countingObserver) OnEvent(trace.Event)          { o.events++ }
func (o *countingObserver) OnProgress(ProgressSample)    {}
func (o *countingObserver) OnMetrics(_ []metrics.Series) {}

// TestResultPinsNoJob checks the retention contract: a finished run's
// Result, trace and metrics included, references no simulator state, so
// once the caller drops the Handles the job and its engine are garbage.
// The trace collector's emit hook is a method value bound to the job,
// so the run must clear it or Result.Trace keeps the whole job graph.
func TestResultPinsNoJob(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
	}{
		{"local", smallSpec(workloads.Terasort(), ModeALG, 4)},
		{"remote", remoteSpec(workloads.Terasort(), ModeYARN, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obs := &countingObserver{}
			h := &Handles{}
			res, err := Run(tc.spec, smallCluster(), WithTrace(), WithMetrics(), WithObserver(obs),
				WithPlan(faults.CrashMOFNodeAtJobProgress(0.55)), WithHandles(h))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed || res.Trace == nil || res.Metrics == nil || obs.events == 0 {
				t.Fatalf("completed=%v trace=%v metrics=%v observed events=%d",
					res.Completed, res.Trace != nil, res.Metrics != nil, obs.events)
			}
			job, eng := weak.Make(h.Job), weak.Make(h.Eng)
			h = nil
			runtime.GC()
			if job.Value() != nil {
				t.Error("the Result keeps its Job reachable")
			}
			if eng.Value() != nil {
				t.Error("the Result keeps the event engine reachable")
			}
			if len(res.Trace.Events) == 0 || len(res.Metrics.Series) == 0 {
				t.Fatal("the Result lost its trace or metrics")
			}
			runtime.KeepAlive(res)
		})
	}
}

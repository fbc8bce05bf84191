package experiments

import (
	"fmt"
	"time"

	"alm/internal/engine"
	"alm/internal/faults"
	"alm/internal/trace"
)

// Paper benchmark configurations (Section V-A/V-B): Terasort 100 GB with
// 20 ReduceTasks, Wordcount 10 GB with a single ReduceTask (Figs. 3, 10),
// Secondarysort 10 GB.
func terasort(mode engine.Mode, opt Options) engine.JobSpec {
	return job(opt.wl.terasort, 100*gb, 20, mode, opt)
}

func wordcount(mode engine.Mode, opt Options) engine.JobSpec {
	return job(opt.wl.wordcount, 10*gb, 1, mode, opt)
}

func secondarysort(mode engine.Mode, opt Options) engine.JobSpec {
	return job(opt.wl.secondarysort, 10*gb, 10, mode, opt)
}

func benchmarkSpec(name string, mode engine.Mode, opt Options) engine.JobSpec {
	switch name {
	case "terasort":
		return terasort(mode, opt)
	case "wordcount":
		return wordcount(mode, opt)
	default:
		return secondarysort(mode, opt)
	}
}

var benchmarkNames = []string{"terasort", "wordcount", "secondarysort"}

// Fig1 reproduces Fig. 1: the recovery time of a single ReduceTask
// failure dwarfs that of even 200 MapTask failures.
func Fig1(opt Options) (*Table, error) {
	opt = opt.withWorkloads()
	cases := []runCase{
		{key: "free", spec: terasort(engine.ModeYARN, opt)},
		{key: "reduce-1", spec: terasort(engine.ModeYARN, opt),
			plan: faults.FailTaskAtProgress(faults.Reduce, 0, 0.5)},
	}
	counts := []int{50, 100, 150, 200}
	for _, n := range counts {
		cases = append(cases, runCase{
			key:  fmt.Sprintf("maps-%d", n),
			spec: terasort(engine.ModeYARN, opt),
			plan: faults.FailTasksAtProgress(faults.Map, n, 0.5),
		})
	}
	results, err := runAll(cases, opt)
	if err != nil {
		return nil, err
	}
	free := results["free"].Duration
	t := &Table{
		ID:      "fig1",
		Title:   "Recovery time for a single ReduceTask failure vs many MapTask failures (Terasort)",
		Columns: []string{"job_time_s", "recovery_time_s"},
	}
	add := func(label, key string) {
		d := results[key].Duration
		t.Rows = append(t.Rows, Row{Label: label, Values: []float64{secs(d), secs(d - free)}})
	}
	add("failure-free", "free")
	add("1 ReduceTask failure", "reduce-1")
	for _, n := range counts {
		add(fmt.Sprintf("%d MapTask failures", n), fmt.Sprintf("maps-%d", n))
	}
	t.Notes = append(t.Notes,
		"paper shape: recovering one ReduceTask takes an order of magnitude longer than re-running 200 MapTasks")
	return t, nil
}

// Fig2 reproduces Fig. 2: a single MapTask failure is negligible while a
// single ReduceTask failure delays Terasort and Wordcount substantially,
// and more so the later it strikes.
func Fig2(opt Options) (*Table, error) {
	opt = opt.withWorkloads()
	points := []float64{0.25, 0.5, 0.75}
	var cases []runCase
	for _, b := range []string{"terasort", "wordcount"} {
		cases = append(cases,
			runCase{key: b + "/free", spec: benchmarkSpec(b, engine.ModeYARN, opt)},
			runCase{key: b + "/map", spec: benchmarkSpec(b, engine.ModeYARN, opt),
				plan: faults.FailTaskAtProgress(faults.Map, 0, 0.5)},
		)
		for _, p := range points {
			cases = append(cases, runCase{
				key:  fmt.Sprintf("%s/reduce@%.0f", b, p*100),
				spec: benchmarkSpec(b, engine.ModeYARN, opt),
				plan: faults.FailTaskAtProgress(faults.Reduce, 0, p),
			})
		}
	}
	results, err := runAll(cases, opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig2",
		Title:   "Delayed execution from a single task failure (stock YARN)",
		Columns: []string{"job_time_s", "slowdown_pct"},
	}
	for _, b := range []string{"terasort", "wordcount"} {
		free := secs(results[b+"/free"].Duration)
		t.Rows = append(t.Rows, Row{Label: b + " failure-free", Values: []float64{free, 0}})
		d := secs(results[b+"/map"].Duration)
		t.Rows = append(t.Rows, Row{Label: b + " 1 map failure", Values: []float64{d, pct(free, d) * -1}})
		for _, p := range points {
			key := fmt.Sprintf("%s/reduce@%.0f", b, p*100)
			d := secs(results[key].Duration)
			t.Rows = append(t.Rows, Row{
				Label:  fmt.Sprintf("%s 1 reduce failure @%d%%", b, int(p*100)),
				Values: []float64{d, -pct(free, d)},
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: map failure ~ negligible; reduce failure degrades Terasort/Wordcount by >40%, growing with the failure point")
	return t, nil
}

// timelineTable renders a reduce-progress timeline with failure events,
// shared by Fig3, Fig4 and Fig10.
func timelineTable(id, title string, res engine.Result, step time.Duration) *Table {
	t := &Table{ID: id, Title: title, Columns: []string{"reduce_progress", "failed_reduce_attempts"}}
	series := res.Trace.Series("reduce-progress")
	if len(series) == 0 {
		return t
	}
	end := series[len(series)-1].At
	for at := time.Duration(0); at <= time.Duration(end); at += step {
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("t=%ds", int(at.Seconds())),
			Values: []float64{
				res.Trace.ValueAt("reduce-progress", at),
				res.Trace.ValueAt("failed-reduce-attempts", at),
			},
		})
	}
	for _, e := range res.Trace.Events {
		switch e.Kind {
		case trace.KindNodeCrashed, trace.KindNodeDetected, trace.KindTaskFailed,
			trace.KindMapRescheduled, trace.KindFCMStarted:
			t.Notes = append(t.Notes, fmt.Sprintf("%7.1fs %s %s %s %s", e.At.Seconds(), e.Kind, e.Task, e.Node, e.Detail))
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("job time %.1fs, reduce attempt failures %d (additional on healthy nodes: %d)",
		secs(res.Duration), res.ReduceAttemptFailures, res.AdditionalReduceFailures))
	return t
}

// Fig3 reproduces Fig. 3: the temporal repetition of a ReduceTask failure
// under stock YARN — crash, ~70 s detection, recovery, second failure.
func Fig3(opt Options) (*Table, error) {
	opt = opt.withWorkloads()
	res, err := runAll([]runCase{{key: "fig3/yarn", spec: wordcountSpecWithPlan(opt),
		plan: faults.StopNodeOfTaskAtReduceProgress(faults.Reduce, 0, 0.45), needTrace: true}}, opt)
	if err != nil {
		return nil, err
	}
	return timelineTable("fig3", "Temporal amplification under stock YARN (Wordcount, 1 ReduceTask)", res["fig3/yarn"], 10*time.Second), nil
}

func wordcountSpecWithPlan(opt Options) engine.JobSpec { return wordcount(engine.ModeYARN, opt) }

// Fig4 reproduces Fig. 4: a single node failure (hosting MOFs only)
// infects healthy ReduceTasks under stock YARN.
func Fig4(opt Options) (*Table, error) {
	opt = opt.withWorkloads()
	res, err := runAll([]runCase{{key: "fig4/yarn", spec: terasort(engine.ModeYARN, opt),
		plan: faults.StopMOFNodeAtJobProgress(0.55), needTrace: true}}, opt)
	if err != nil {
		return nil, err
	}
	return timelineTable("fig4", "Spatial amplification under stock YARN (Terasort, 20 ReduceTasks)", res["fig4/yarn"], 15*time.Second), nil
}

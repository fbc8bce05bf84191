package experiments

import (
	"fmt"
	"sort"
	"time"

	"alm/internal/engine"
	"alm/internal/faults"
)

// Fig8 reproduces Fig. 8: job execution time under a single ReduceTask
// failure injected at 10-90% of the ReduceTask's progress, YARN vs ALG,
// for all three benchmarks.
func Fig8(opt Options) (*Table, error) {
	opt = opt.withWorkloads()
	points := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	var cases []runCase
	for _, b := range benchmarkNames {
		cases = append(cases, runCase{key: b + "/free", spec: benchmarkSpec(b, engine.ModeYARN, opt)})
		for _, mode := range []engine.Mode{engine.ModeYARN, engine.ModeALG} {
			for _, p := range points {
				cases = append(cases, runCase{
					key:  fmt.Sprintf("%s/%v@%.0f", b, mode, p*100),
					spec: benchmarkSpec(b, mode, opt),
					plan: faults.FailTaskAtProgress(faults.Reduce, 0, p),
				})
			}
		}
	}
	results, err := runAll(cases, opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig8",
		Title:   "Job execution time under a single ReduceTask failure: YARN vs ALG",
		Columns: []string{"yarn_s", "alg_s", "alg_gain_pct"},
	}
	for _, b := range benchmarkNames {
		free := secs(results[b+"/free"].Duration)
		t.Rows = append(t.Rows, Row{Label: b + " failure-free", Values: []float64{free, free, 0}})
		var sumGain float64
		for _, p := range points {
			y := secs(results[fmt.Sprintf("%s/%v@%.0f", b, engine.ModeYARN, p*100)].Duration)
			a := secs(results[fmt.Sprintf("%s/%v@%.0f", b, engine.ModeALG, p*100)].Duration)
			gain := pct(y, a)
			sumGain += gain
			t.Rows = append(t.Rows, Row{
				Label:  fmt.Sprintf("%s failure @%d%%", b, int(p*100)),
				Values: []float64{y, a, gain},
			})
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: average ALG improvement %.1f%% (paper: 15.4/20.1/15.9%% for terasort/wordcount/secondarysort)",
			b, sumGain/float64(len(points))))
	}
	return t, nil
}

// Fig9 reproduces Fig. 9: node failure during the reduce phase; SFM
// shortens migration and recovery vs stock YARN.
func Fig9(opt Options) (*Table, error) {
	opt = opt.withWorkloads()
	points := []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	var cases []runCase
	for _, b := range benchmarkNames {
		cases = append(cases, runCase{key: b + "/free", spec: benchmarkSpec(b, engine.ModeYARN, opt)})
		for _, mode := range []engine.Mode{engine.ModeYARN, engine.ModeSFM} {
			for _, p := range points {
				cases = append(cases, runCase{
					key:  fmt.Sprintf("%s/%v@%.0f", b, mode, p*100),
					spec: benchmarkSpec(b, mode, opt),
					plan: faults.StopNodeOfTaskAtReduceProgress(faults.Reduce, 0, p),
				})
			}
		}
	}
	results, err := runAll(cases, opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig9",
		Title:   "Node failure in the reduce phase: YARN vs SFM migration+recovery",
		Columns: []string{"yarn_s", "sfm_s", "sfm_gain_pct"},
	}
	for _, b := range benchmarkNames {
		free := secs(results[b+"/free"].Duration)
		t.Rows = append(t.Rows, Row{Label: b + " failure-free", Values: []float64{free, free, 0}})
		var sumGain float64
		for _, p := range points {
			y := secs(results[fmt.Sprintf("%s/%v@%.0f", b, engine.ModeYARN, p*100)].Duration)
			s := secs(results[fmt.Sprintf("%s/%v@%.0f", b, engine.ModeSFM, p*100)].Duration)
			gain := pct(y, s)
			sumGain += gain
			t.Rows = append(t.Rows, Row{
				Label:  fmt.Sprintf("%s node fail @%d%%", b, int(p*100)),
				Values: []float64{y, s, gain},
			})
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: average SFM improvement %.1f%% (paper: 10.9/39.4/18.8%%)",
			b, sumGain/float64(len(points))))
	}
	return t, nil
}

// Fig10 reproduces Fig. 10: the same node-failure scenario as Fig. 3 but
// under SFM — map regeneration is prioritised, the recovery launch is
// slightly delayed, and no second failure occurs.
func Fig10(opt Options) (*Table, error) {
	opt = opt.withWorkloads()
	res, err := runAll([]runCase{{key: "fig10/sfm", spec: wordcount(engine.ModeSFM, opt),
		plan: faults.StopNodeOfTaskAtReduceProgress(faults.Reduce, 0, 0.45), needTrace: true}}, opt)
	if err != nil {
		return nil, err
	}
	return timelineTable("fig10", "SFM eliminates temporal amplification (Wordcount, 1 ReduceTask)", res["fig10/sfm"], 10*time.Second), nil
}

// Table2 reproduces Table II: node failure (a node hosting MOFs but no
// ReduceTask) at three points of the reduce phase; additional failures
// and execution time, YARN vs SFM.
func Table2(opt Options) (*Table, error) {
	opt = opt.withWorkloads()
	points := []float64{0.1, 0.2, 0.3}
	var cases []runCase
	for _, mode := range []engine.Mode{engine.ModeYARN, engine.ModeSFM} {
		for _, p := range points {
			cases = append(cases, runCase{
				key:  fmt.Sprintf("%v@%.0f", mode, p*100),
				spec: terasort(mode, opt),
				plan: (&faults.Plan{}).Add(
					faults.Trigger{Kind: faults.AtReducePhaseProgress, Fraction: p},
					faults.Action{Kind: faults.StopNodeNetwork, Selector: faults.NodeWithMOFsOnly},
				),
			})
		}
	}
	results, err := runAll(cases, opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table2",
		Title:   "Spatial amplification vs SFM (Terasort, MOF-only node failure)",
		Columns: []string{"additional_failures", "execution_time_s"},
	}
	for _, p := range points {
		for _, mode := range []engine.Mode{engine.ModeYARN, engine.ModeSFM} {
			r := results[fmt.Sprintf("%v@%.0f", mode, p*100)]
			t.Rows = append(t.Rows, Row{
				Label:  fmt.Sprintf("%v, first failure @%d%% of reduce phase", mode, int(p*100)),
				Values: []float64{float64(r.AdditionalReduceFailures), secs(r.Duration)},
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper: YARN suffers 2-5 additional ReduceTask failures per scenario; SFM zero",
		"failure points are fractions of the reduce phase (the shuffle window), the regime Fig. 4 profiles")
	return t, nil
}

// Fig14 reproduces Fig. 14: recovery under 1/5/10 concurrent ReduceTask
// failures with 1-32 GB of intermediate data per reducer, YARN vs SFM.
func Fig14(opt Options) (*Table, error) {
	opt = opt.withWorkloads()
	perReducerGB := []int64{1, 2, 4, 8, 16, 32}
	failures := []int{1, 5, 10}
	const reduces = 10
	var cases []runCase
	// recovery holds each case's meanTaskRecovery, computed in the worker
	// from its trace, by case key.
	recovery := map[string]*float64{}
	for _, sz := range perReducerGB {
		spec := func(mode engine.Mode) engine.JobSpec {
			return job(opt.wl.terasort, sz*gb*reduces, reduces, mode, opt)
		}
		for _, mode := range []engine.Mode{engine.ModeYARN, engine.ModeSFM} {
			for _, n := range failures {
				key := fmt.Sprintf("%v/%d/%d", mode, sz, n)
				v := new(float64)
				recovery[key] = v
				cases = append(cases, runCase{
					key:     key,
					spec:    spec(mode),
					plan:    faults.FailTasksAtProgress(faults.Reduce, n, 0.5),
					measure: func(res engine.Result) { *v = meanTaskRecovery(res) },
				})
			}
		}
	}
	if _, err := runAll(cases, opt); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig14",
		Title:   "Recovery of concurrent ReduceTask failures: YARN vs SFM (Terasort)",
		Columns: []string{"yarn_recovery_s", "sfm_recovery_s", "sfm_gain_pct"},
	}
	gainBy := map[int][]float64{}
	for _, n := range failures {
		for _, sz := range perReducerGB {
			y := *recovery[fmt.Sprintf("%v/%d/%d", engine.ModeYARN, sz, n)]
			s := *recovery[fmt.Sprintf("%v/%d/%d", engine.ModeSFM, sz, n)]
			gain := pct(y, s)
			gainBy[n] = append(gainBy[n], gain)
			t.Rows = append(t.Rows, Row{
				Label:  fmt.Sprintf("%d failures, %d GB/reducer", n, sz),
				Values: []float64{y, s, gain},
			})
		}
	}
	for _, n := range failures {
		var sum float64
		for _, g := range gainBy[n] {
			sum += g
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%d concurrent failures: average SFM recovery-time cut %.1f%% (paper: up to 40.7/44.3/49.5%%)",
			n, sum/float64(len(gainBy[n]))))
	}
	t.Notes = append(t.Notes, "paper shape: the SFM advantage grows with per-reducer data size")
	return t, nil
}

// meanTaskRecovery measures what the paper's Fig. 14 plots: the mean
// time from a ReduceTask's (injected) failure to that task's eventual
// completion, averaged over all tasks that failed.
func meanTaskRecovery(res engine.Result) float64 {
	failedAt := map[string]float64{} // task prefix (e.g. "r_003") -> first failure
	doneAt := map[string]float64{}
	for _, e := range res.Trace.Events {
		if len(e.Task) < 5 || e.Task[0] != 'r' {
			continue
		}
		task := e.Task[:5]
		switch e.Kind {
		case "task-failed":
			if _, ok := failedAt[task]; !ok {
				failedAt[task] = e.At.Seconds()
			}
		case "task-finished":
			doneAt[task] = e.At.Seconds()
		}
	}
	// Sum in sorted task order: float addition is not associative, and
	// iterating the map directly would make the mean depend on Go's
	// randomized map order, breaking byte-identical benchmark output.
	tasks := make([]string, 0, len(failedAt))
	for task := range failedAt {
		tasks = append(tasks, task)
	}
	sort.Strings(tasks)
	var sum float64
	n := 0
	for _, task := range tasks {
		f := failedAt[task]
		if d, ok := doneAt[task]; ok && d > f {
			sum += d - f
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Fig15 reproduces Fig. 15: enabling ALG on top of SFM accelerates
// recovery further by replaying logged analytics.
func Fig15(opt Options) (*Table, error) {
	opt = opt.withWorkloads()
	var cases []runCase
	point := 0.75
	for _, b := range benchmarkNames {
		cases = append(cases, runCase{key: b + "/free", spec: benchmarkSpec(b, engine.ModeYARN, opt)})
		for _, mode := range []engine.Mode{engine.ModeSFM, engine.ModeALM} {
			cases = append(cases, runCase{
				key:  fmt.Sprintf("%s/%v", b, mode),
				spec: benchmarkSpec(b, mode, opt),
				plan: faults.StopNodeOfTaskAtReduceProgress(faults.Reduce, 0, point),
			})
		}
	}
	results, err := runAll(cases, opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig15",
		Title:   "Recovery with SFM only vs SFM+ALG (node failure at 75% of reduce phase)",
		Columns: []string{"sfm_recovery_s", "alm_recovery_s", "alg_extra_gain_pct"},
	}
	for _, b := range benchmarkNames {
		free := results[b+"/free"].Duration
		s := secs(results[fmt.Sprintf("%s/%v", b, engine.ModeSFM)].Duration - free)
		a := secs(results[fmt.Sprintf("%s/%v", b, engine.ModeALM)].Duration - free)
		t.Rows = append(t.Rows, Row{Label: b, Values: []float64{s, a, pct(s, a)}})
	}
	t.Notes = append(t.Notes,
		"paper: SFM+ALG accelerates recovery by a further 11.4/16.1/25.8% for terasort/wordcount/secondarysort")
	return t, nil
}

package experiments

import (
	"time"

	"alm/internal/engine"
	"alm/internal/faults"
)

// RelatedWork goes beyond the paper's measurements to quantify its
// Sections III/VI arguments against the alternatives it cites:
//
//   - heavyweight system-level checkpointing (full memory images) versus
//     ALG's task-level analytics logs, and
//   - ISS-style intermediate-data replication (Ko et al.) versus SFM's
//     proactive regeneration.
//
// Each approach runs failure-free (overhead) and under the Fig. 3 node
// failure (recovery quality) on Wordcount 10 GB.
func RelatedWork(opt Options) (*Table, error) {
	opt = opt.withWorkloads()
	base := func() engine.JobSpec { return wordcount(engine.ModeYARN, opt) }
	withISS := func() engine.JobSpec {
		s := base()
		s.ISS = engine.ISSOptions{Enabled: true}
		return s
	}
	withCkpt := func() engine.JobSpec {
		s := base()
		s.Checkpoint = engine.CheckpointOptions{Enabled: true, Interval: 30 * time.Second}
		return s
	}
	nodeFail := func() *faults.Plan {
		return faults.StopNodeOfTaskAtReduceProgress(faults.Reduce, 0, 0.45)
	}
	cases := []runCase{
		{key: "yarn/free", spec: base()},
		{key: "yarn/fail", spec: base(), plan: nodeFail()},
		{key: "ckpt/free", spec: withCkpt()},
		{key: "ckpt/fail", spec: withCkpt(), plan: nodeFail()},
		{key: "iss/free", spec: withISS()},
		{key: "iss/fail", spec: withISS(), plan: nodeFail()},
		{key: "alm/free", spec: wordcount(engine.ModeALM, opt)},
		{key: "alm/fail", spec: wordcount(engine.ModeALM, opt), plan: nodeFail()},
	}
	results, err := runAll(cases, opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "related",
		Title:   "ALM vs the alternatives the paper argues against (Wordcount, node failure)",
		Columns: []string{"failure_free_s", "with_node_failure_s", "overhead_pct", "reduce_failures"},
	}
	yarnFree := secs(results["yarn/free"].Duration)
	for _, sys := range []struct{ key, label string }{
		{"yarn", "stock YARN"},
		{"ckpt", "heavyweight checkpointing (Sec. III strawman)"},
		{"iss", "ISS intermediate-data replication (Ko et al.)"},
		{"alm", "ALM (ALG + SFM)"},
	} {
		free := results[sys.key+"/free"]
		fail := results[sys.key+"/fail"]
		t.Rows = append(t.Rows, Row{
			Label: sys.label,
			Values: []float64{
				secs(free.Duration),
				secs(fail.Duration),
				-pct(yarnFree, secs(free.Duration)),
				float64(fail.ReduceAttemptFailures),
			},
		})
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper: quantifies the Sections III/VI arguments",
		"expected shape: checkpointing pays heavily when failure-free; ISS pays on every map and still recovers reducers slowly; ALM is near-free and recovers fastest")
	return t, nil
}

package experiments

import (
	"fmt"

	"alm/internal/core"
	"alm/internal/engine"
	"alm/internal/faults"
)

// Ablations goes beyond the paper: it switches off the individual SFM/ALG
// design choices that DESIGN.md calls out and measures each one's
// contribution under the node-failure scenario of Fig. 9 (Wordcount,
// failure at 60% of the reduce phase) and the spatial scenario of
// Table II (Terasort).
func Ablations(opt Options) (*Table, error) {
	opt = opt.withWorkloads()
	nodeFail := func() *faults.Plan {
		return faults.StopNodeOfTaskAtReduceProgress(faults.Reduce, 0, 0.6)
	}
	spatial := func() *faults.Plan {
		return (&faults.Plan{}).Add(
			faults.Trigger{Kind: faults.AtReducePhaseProgress, Fraction: 0.2},
			faults.Action{Kind: faults.StopNodeNetwork, Selector: faults.NodeWithMOFsOnly},
		)
	}
	mutate := func(f func(*core.SFMOptions)) engine.JobSpec {
		spec := wordcount(engine.ModeALM, opt)
		sfm := core.DefaultSFMOptions()
		f(&sfm)
		spec.SFM = sfm
		return spec
	}
	cases := []runCase{
		{key: "free", spec: wordcount(engine.ModeYARN, opt)},
		{key: "yarn", spec: wordcount(engine.ModeYARN, opt), plan: nodeFail()},
		{key: "alm-full", spec: wordcount(engine.ModeALM, opt), plan: nodeFail()},
		{key: "no-fcm", spec: mutate(func(s *core.SFMOptions) { s.FCMCap = -1 }), plan: nodeFail()},
		{key: "no-map-regen", spec: mutate(func(s *core.SFMOptions) { s.ProactiveMapRegen = false }), plan: nodeFail()},
		{key: "no-speculation", spec: mutate(func(s *core.SFMOptions) { s.SpeculativeRecovery = false }), plan: nodeFail()},
		{key: "spatial-yarn", spec: terasort(engine.ModeYARN, opt), plan: spatial()},
		{key: "spatial-sfm", spec: terasort(engine.ModeSFM, opt), plan: spatial()},
	}
	// Wait-advisory ablation on the spatial scenario, where it matters.
	noWait := terasort(engine.ModeSFM, opt)
	{
		sfm := core.DefaultSFMOptions()
		sfm.WaitAdvisory = false
		noWait.SFM = sfm
	}
	cases = append(cases, runCase{key: "spatial-no-wait", spec: noWait, plan: spatial()})
	results, err := runAll(cases, opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablations",
		Title:   "Contribution of individual ALM design choices",
		Columns: []string{"job_time_s", "reduce_failures", "additional_failures"},
	}
	order := []struct{ key, label string }{
		{"free", "wordcount failure-free"},
		{"yarn", "node failure, stock YARN"},
		{"alm-full", "node failure, full ALM"},
		{"no-fcm", "ALM without FCM (regular speculative recovery)"},
		{"no-map-regen", "ALM without proactive map regeneration"},
		{"no-speculation", "ALM without speculative recovery tasks"},
		{"spatial-yarn", "spatial scenario, stock YARN"},
		{"spatial-sfm", "spatial scenario, SFM"},
		{"spatial-no-wait", "spatial scenario, SFM without wait advisory"},
	}
	for _, o := range order {
		r, ok := results[o.key]
		if !ok {
			return nil, fmt.Errorf("ablations: missing case %s", o.key)
		}
		t.Rows = append(t.Rows, Row{
			Label: o.label,
			Values: []float64{secs(r.Duration), float64(r.ReduceAttemptFailures),
				float64(r.AdditionalReduceFailures)},
		})
	}
	t.Notes = append(t.Notes, "extension beyond the paper: isolates each mechanism's contribution")
	return t, nil
}

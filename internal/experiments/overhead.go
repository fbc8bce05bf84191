package experiments

import (
	"fmt"
	"time"

	"alm/internal/core"
	"alm/internal/engine"
	"alm/internal/mr"
)

// terasortSized builds a Terasort job with the given input size.
func terasortSized(sizeGB int64, mode engine.Mode, opt Options) engine.JobSpec {
	return job(opt.wl.terasort, sizeGB*gb, 20, mode, opt)
}

// Fig11 reproduces Fig. 11: ALG's overhead on failure-free Terasort runs
// from 10 to 320 GB is negligible.
func Fig11(opt Options) (*Table, error) {
	opt = opt.withWorkloads()
	sizes := []int64{10, 20, 40, 80, 160, 320}
	var cases []runCase
	for _, sz := range sizes {
		cases = append(cases,
			runCase{key: fmt.Sprintf("yarn/%d", sz), spec: terasortSized(sz, engine.ModeYARN, opt)},
			runCase{key: fmt.Sprintf("alg/%d", sz), spec: terasortSized(sz, engine.ModeALG, opt)},
		)
	}
	results, err := runAll(cases, opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig11",
		Title:   "ALG overhead in failure-free scenarios (Terasort)",
		Columns: []string{"yarn_s", "alg_s", "overhead_pct"},
	}
	for _, sz := range sizes {
		y := secs(results[fmt.Sprintf("yarn/%d", sz)].Duration)
		a := secs(results[fmt.Sprintf("alg/%d", sz)].Duration)
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("terasort %d GB", sz),
			Values: []float64{y, a, -pct(y, a)},
		})
	}
	t.Notes = append(t.Notes, "paper shape: ALG incurs negligible penalty at every size")
	return t, nil
}

// Fig12 reproduces Fig. 12: ALG is insensitive to the logging frequency.
func Fig12(opt Options) (*Table, error) {
	opt = opt.withWorkloads()
	intervals := []time.Duration{2 * time.Second, 5 * time.Second, 10 * time.Second,
		20 * time.Second, 30 * time.Second, 60 * time.Second}
	var cases []runCase
	cases = append(cases, runCase{key: "yarn", spec: terasortSized(100, engine.ModeYARN, opt)})
	for _, iv := range intervals {
		spec := terasortSized(100, engine.ModeALG, opt)
		spec.ALG = core.DefaultALGOptions()
		spec.ALG.Interval = iv
		cases = append(cases, runCase{key: iv.String(), spec: spec})
	}
	results, err := runAll(cases, opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig12",
		Title:   "ALG performance at different logging frequencies (Terasort 100 GB)",
		Columns: []string{"job_time_s", "snapshots"},
	}
	y := results["yarn"]
	t.Rows = append(t.Rows, Row{Label: "yarn (no logging)", Values: []float64{secs(y.Duration), 0}})
	for _, iv := range intervals {
		r := results[iv.String()]
		t.Rows = append(t.Rows, Row{
			Label:  "alg interval " + iv.String(),
			Values: []float64{secs(r.Duration), float64(r.Counters["alg.snapshots"])},
		})
	}
	t.Notes = append(t.Notes, "paper shape: stable performance across frequencies; frequent logging is cheap because each snapshot covers less new work")
	return t, nil
}

// Fig13 reproduces Fig. 13: the replication level of ALG's reduce-stage
// HDFS writes. Node-level replication is cheapest; rack-level adds a
// small cost; cluster-level replication (crossing the oversubscribed
// uplink) slows the reduce stage substantially at large sizes.
func Fig13(opt Options) (*Table, error) {
	opt = opt.withWorkloads()
	sizes := []int64{40, 80, 160, 320}
	levels := []mr.ReplicationLevel{mr.ReplicateNode, mr.ReplicateRack, mr.ReplicateCluster}
	var cases []runCase
	for _, sz := range sizes {
		for _, lvl := range levels {
			spec := terasortSized(sz, engine.ModeALG, opt)
			spec.ALG = core.DefaultALGOptions()
			spec.ALG.Replication = lvl
			// Terasort's reduce function is the identity: its reduce
			// stage is I/O-bound, not CPU-bound, which is precisely why
			// the paper sees output replication dominate the reduce
			// stage. Model that with an I/O-class reduce rate so the
			// replication pipeline can become the bottleneck.
			spec.Conf = mr.DefaultConfig()
			spec.Conf.Costs.ReduceCPURate = 150e6
			cases = append(cases, runCase{key: fmt.Sprintf("%s/%d", lvl, sz), spec: spec})
		}
	}
	results, err := runAll(cases, opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig13",
		Title:   "Impact of ALG replication level on the reduce stage (Terasort)",
		Columns: []string{"reduce_stage_s", "vs_node_pct"},
	}
	for _, sz := range sizes {
		var nodeBase float64
		for _, lvl := range levels {
			r := results[fmt.Sprintf("%s/%d", lvl, sz)]
			reduceStage := secs(r.Duration - r.MapPhaseDone)
			if lvl == mr.ReplicateNode {
				nodeBase = reduceStage
			}
			t.Rows = append(t.Rows, Row{
				Label:  fmt.Sprintf("%d GB, %s-level", sz, lvl),
				Values: []float64{reduceStage, -pct(nodeBase, reduceStage)},
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper: at 320 GB rack-level replication delays the reduce stage ~18.4% vs node-level; cluster-level ~55.7%")
	return t, nil
}

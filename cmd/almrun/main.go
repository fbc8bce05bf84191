// Command almrun executes a single MapReduce job on the simulated
// cluster under a chosen fault-tolerance mode and fault scenario, and
// prints the outcome — the fastest way to poke at the system.
//
// Examples:
//
//	almrun -workload wordcount -size-gb 10 -reduces 1 -mode yarn \
//	       -fail node-of-reduce -at 0.5 -timeline
//	almrun -workload terasort -size-gb 100 -reduces 20 -mode alm \
//	       -fail mof-node -at 0.55 -events
//
// Chaos mode sweeps seeded random gray-failure schedules under all four
// engine modes, asserting the recovery invariants (see DESIGN.md §11):
//
//	almrun -chaos -seeds 50          # seeds 11..60 (from -seed)
//	almrun -chaos -seed 1234 -seeds 1 -v   # reproduce one seed, verbose
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"alm"
	"alm/internal/chaos"
	"alm/internal/metrics"
	"alm/internal/metrics/lint"
	"alm/internal/tournament"
)

func main() {
	var (
		workload = flag.String("workload", "wordcount", "terasort | wordcount | secondarysort")
		sizeGB   = flag.Float64("size-gb", 10, "input size in GB (logical, paper scale)")
		reduces  = flag.Int("reduces", 1, "number of ReduceTasks")
		modeStr  = flag.String("mode", "yarn", "yarn | alg | sfm | alm")
		failKind = flag.String("fail", "none", "none | reduce-task | map-task | node-of-reduce | mof-node | concurrent-reduces | slow-node")
		at       = flag.Float64("at", 0.5, "progress fraction at which the fault fires")
		count    = flag.Int("count", 1, "task count for concurrent-reduces")
		seed     = flag.Int64("seed", 11, "simulation seed")
		events   = flag.Bool("events", false, "dump the failure/recovery event trace")
		timeline = flag.Bool("timeline", false, "dump the reduce-progress timeline")
		iss      = flag.Bool("iss", false, "enable ISS intermediate-data replication (related work)")
		ckpt     = flag.Bool("checkpoint", false, "enable heavyweight full-image checkpointing (related work)")
		slow     = flag.Float64("slow-factor", 0, "with -fail slow-node: disk bandwidth multiplier (e.g. 0.05)")
		shuffle  = flag.String("shuffle", "local", "local | remote: shuffle data path (remote pushes MOFs to the replicated shuffle tier; with -chaos, sweeps the remote invariant matrix)")
		chaosRun = flag.Bool("chaos", false, "run the chaos invariant checker instead of a single job")
		tourney  = flag.Bool("tournament", false, "race the recovery-policy set head-to-head under seeded chaos schedules and print a league table per fault class")
		standing = flag.Bool("standings", false, "with -tournament: print the regret-weighted overall standings instead of the per-class league table")
		seedDet  = flag.Int64("seed-detail", -1, "with -tournament: print the drill-down (schedule + per-policy outcomes) for this seed instead of the league table")
		policies = flag.String("policies", "", "with -tournament: comma-separated policy names (default: every registered policy)")
		seeds    = flag.Int("seeds", 50, "with -chaos/-tournament: how many consecutive seeds to sweep (starting at -seed)")
		workers  = flag.Int("workers", runtime.NumCPU(), "with -chaos/-tournament: parallel sweep engines (output is byte-identical at any worker count)")
		verbose  = flag.Bool("v", false, "with -chaos/-tournament: print each generated schedule")
		metricsP = flag.String("metrics", "", "write the run's metrics snapshot to this path (Prometheus text; .json suffix switches to JSON)")
	)
	flag.Parse()

	remote := false
	switch *shuffle {
	case "local":
	case "remote":
		remote = true
	default:
		fatal(fmt.Errorf("unknown shuffle path %q", *shuffle))
	}
	if *chaosRun {
		os.Exit(runChaos(*seed, *seeds, *workers, remote, *verbose, *metricsP))
	}
	if *tourney {
		os.Exit(runTournament(*seed, *seeds, *workers, *policies, *verbose, *standing, *seedDet))
	}

	w, err := alm.WorkloadByName(*workload)
	if err != nil {
		fatal(err)
	}
	var mode alm.Mode
	switch *modeStr {
	case "yarn":
		mode = alm.ModeYARN
	case "alg":
		mode = alm.ModeALG
	case "sfm":
		mode = alm.ModeSFM
	case "alm":
		mode = alm.ModeALM
	default:
		fatal(fmt.Errorf("unknown mode %q", *modeStr))
	}
	var plan *alm.FaultPlan
	switch *failKind {
	case "none":
	case "reduce-task":
		plan = alm.FailTaskAtProgress(alm.ReduceTask, 0, *at)
	case "map-task":
		plan = alm.FailTaskAtProgress(alm.MapTask, 0, *at)
	case "node-of-reduce":
		plan = alm.StopNodeOfTaskAtReduceProgress(alm.ReduceTask, 0, *at)
	case "mof-node":
		plan = alm.StopMOFNodeAtJobProgress(*at)
	case "concurrent-reduces":
		plan = alm.FailTasksAtProgress(alm.ReduceTask, *count, *at)
	case "slow-node":
		factor := *slow
		if factor <= 0 {
			factor = 0.05
		}
		plan = alm.SlowNodeOfTaskAtReduceProgress(alm.ReduceTask, 0, *at, factor)
	default:
		fatal(fmt.Errorf("unknown fault kind %q", *failKind))
	}

	spec := alm.JobSpec{
		Workload:   w,
		InputBytes: int64(*sizeGB * float64(1<<30)),
		NumReduces: *reduces,
		Mode:       mode,
		Seed:       *seed,
	}
	if remote {
		spec.Shuffle = alm.ShuffleOptions{Remote: true}
	}
	if *iss {
		spec.ISS = alm.ISSOptions{Enabled: true}
	}
	if *ckpt {
		spec.Checkpoint = alm.CheckpointOptions{Enabled: true}
	}
	opts := []alm.RunOption{alm.WithFaults(plan), alm.WithTrace()}
	if *metricsP != "" {
		opts = append(opts, alm.WithMetrics())
	}
	res, err := alm.Run(spec, alm.DefaultClusterSpec(), opts...)
	if err != nil {
		fatal(err)
	}
	if *metricsP != "" {
		if err := writeMetrics(*metricsP, res.Metrics); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics         written to %s\n", *metricsP)
	}

	fmt.Printf("workload        %s (%.1f GB, %d reducers, mode %v)\n", *workload, *sizeGB, *reduces, mode)
	if res.Completed {
		fmt.Printf("status          completed in %v (virtual time)\n", res.Duration)
	} else {
		fmt.Printf("status          FAILED: %s\n", res.FailReason)
	}
	fmt.Printf("map phase       done at %v\n", res.MapPhaseDone)
	fmt.Printf("output          %d records, %d logical bytes\n", len(res.Output), res.OutputLogicalBytes)
	fmt.Printf("failures        map attempts %d, reduce attempts %d (additional on healthy nodes: %d)\n",
		res.MapAttemptFailures, res.ReduceAttemptFailures, res.AdditionalReduceFailures)
	if len(res.Counters) > 0 {
		fmt.Printf("counters        %v\n", res.Counters)
	}
	if *events {
		fmt.Println("\nevents:")
		fmt.Print(res.Trace.Dump())
	}
	if *timeline {
		fmt.Println("\nreduce-progress timeline:")
		for _, p := range res.Trace.Series("reduce-progress") {
			fmt.Printf("  %7.1fs %6.1f%%\n", p.At.Seconds(), p.Value*100)
		}
	}
	if !res.Completed {
		os.Exit(1)
	}
}

// runChaos sweeps n consecutive chaos seeds (chaos.Sweep prints the
// transcript) and returns the process exit code.
func runChaos(first int64, n, workers int, remote, verbose bool, metricsPath string) int {
	reg := metrics.NewRegistry()
	bad := chaos.Sweep(os.Stdout, first, n, workers, remote, verbose, reg)
	if metricsPath != "" {
		if err := writeMetrics(metricsPath, reg.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "almrun:", err)
			return 2
		}
	}
	if len(bad) > 0 {
		return 1
	}
	return 0
}

// runTournament races the recovery-policy set over n consecutive chaos
// seeds and prints the deterministic per-fault-class league table
// (tournament.Result.Format, byte-identical across runs —
// TestLeagueGolden pins it against a checked-in golden), the
// regret-weighted standings (-standings), or one seed's drill-down
// (-seed-detail). Returns the process exit code.
func runTournament(first int64, n, workers int, policiesCSV string, verbose, standings bool, seedDetail int64) int {
	opts := tournament.Options{FirstSeed: first, Seeds: n, Workers: workers}
	if policiesCSV != "" {
		for _, p := range strings.Split(policiesCSV, ",") {
			if p = strings.TrimSpace(p); p != "" {
				opts.Policies = append(opts.Policies, p)
			}
		}
	}
	if verbose {
		sh, _ := chaos.CheckShape()
		for seed := first; seed < first+int64(n); seed++ {
			sched := chaos.Generate(seed, chaos.DefaultBudget(), sh)
			fmt.Print(sched.String())
		}
	}
	res, err := tournament.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "almrun:", err)
		return 2
	}
	switch {
	case seedDetail >= 0:
		fmt.Print(res.FormatSeedDetail(seedDetail))
	case standings:
		fmt.Print(res.FormatStandings())
	default:
		fmt.Print(res.Format())
	}
	return 0
}

// writeMetrics renders the snapshot to path — Prometheus text by
// default, JSON when the path ends in .json — validating the Prometheus
// form with the promtext checker before anything reaches disk.
func writeMetrics(path string, snap *alm.MetricsSnapshot) error {
	if snap == nil {
		snap = &alm.MetricsSnapshot{}
	}
	data := snap.Prometheus()
	if err := lint.Check(data); err != nil {
		return fmt.Errorf("metrics failed validation: %w", err)
	}
	if strings.HasSuffix(path, ".json") {
		data = snap.JSON()
	}
	return os.WriteFile(path, data, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "almrun:", err)
	os.Exit(2)
}

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
//
// -cost appends the simulator's work counters for the job
// (Result.Events: events fired, allocator passes, ...), one per line.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"strings"

	"alm"
	"alm/internal/chaos"
	"alm/internal/engine"
	"alm/internal/metrics"
	"alm/internal/metrics/lint"
	"alm/internal/tournament"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs what they ask for, prints to stdout and stderr,
// and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("almrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "wordcount", "terasort | wordcount | secondarysort")
		sizeGB   = fs.Float64("size-gb", 10, "input size in GB (logical, paper scale)")
		reduces  = fs.Int("reduces", 1, "number of ReduceTasks")
		modeStr  = fs.String("mode", "yarn", "yarn | alg | sfm | alm")
		failKind = fs.String("fail", "none", "none | reduce-task | map-task | node-of-reduce | mof-node | concurrent-reduces | slow-node")
		at       = fs.Float64("at", 0.5, "progress fraction at which the fault fires")
		count    = fs.Int("count", 1, "task count for concurrent-reduces")
		seed     = fs.Int64("seed", 11, "simulation seed")
		events   = fs.Bool("events", false, "dump the failure/recovery event trace")
		timeline = fs.Bool("timeline", false, "dump the reduce-progress timeline")
		iss      = fs.Bool("iss", false, "enable ISS intermediate-data replication (related work)")
		ckpt     = fs.Bool("checkpoint", false, "enable heavyweight full-image checkpointing (related work)")
		slow     = fs.Float64("slow-factor", 0, "with -fail slow-node: disk bandwidth multiplier (e.g. 0.05)")
		shuffle  = fs.String("shuffle", "local", "local | remote: shuffle data path (remote pushes MOFs to the replicated shuffle tier; with -chaos, sweeps the remote invariant matrix)")
		chaosRun = fs.Bool("chaos", false, "run the chaos invariant checker instead of a single job")
		tourney  = fs.Bool("tournament", false, "race the recovery-policy set head-to-head under seeded chaos schedules and print a league table per fault class")
		standing = fs.Bool("standings", false, "with -tournament: print the regret-weighted overall standings instead of the per-class league table")
		seedDet  = fs.Int64("seed-detail", -1, "with -tournament: print the drill-down (schedule + per-policy outcomes) for this seed instead of the league table")
		policies = fs.String("policies", "", "with -tournament: comma-separated policy names (default: every registered policy)")
		seeds    = fs.Int("seeds", 50, "with -chaos/-tournament: how many consecutive seeds to sweep (starting at -seed)")
		workers  = fs.Int("workers", runtime.NumCPU(), "with -chaos/-tournament: parallel sweep engines (output is byte-identical at any worker count)")
		verbose  = fs.Bool("v", false, "with -chaos/-tournament: print each generated schedule")
		metricsP = fs.String("metrics", "", "write the run's metrics snapshot to this path (Prometheus text; .json suffix switches to JSON)")
		cost     = fs.Bool("cost", false, "print the job's work counters (Result.Events), one per line")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "almrun:", err)
		return 2
	}

	remote := false
	switch *shuffle {
	case "local":
	case "remote":
		remote = true
	default:
		return fatal(fmt.Errorf("unknown shuffle path %q", *shuffle))
	}
	if *cost && (*chaosRun || *tourney) {
		return fatal(errors.New("-cost prints one job's counters; it does not combine with -chaos or -tournament"))
	}
	if *chaosRun {
		return runChaos(stdout, stderr, *seed, *seeds, *workers, remote, *verbose, *metricsP)
	}
	if *tourney {
		return runTournament(stdout, stderr, *seed, *seeds, *workers, *policies, *verbose, *standing, *seedDet)
	}

	w, err := alm.WorkloadByName(*workload)
	if err != nil {
		return fatal(err)
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
		return fatal(fmt.Errorf("unknown mode %q", *modeStr))
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
		return fatal(fmt.Errorf("unknown fault kind %q", *failKind))
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
		return fatal(err)
	}
	if *metricsP != "" {
		if err := writeMetrics(*metricsP, res.Metrics); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "metrics         written to %s\n", *metricsP)
	}

	fmt.Fprintf(stdout, "workload        %s (%.1f GB, %d reducers, mode %v)\n", *workload, *sizeGB, *reduces, mode)
	if res.Completed {
		fmt.Fprintf(stdout, "status          completed in %v (virtual time)\n", res.Duration)
	} else {
		fmt.Fprintf(stdout, "status          FAILED: %s\n", res.FailReason)
	}
	fmt.Fprintf(stdout, "map phase       done at %v\n", res.MapPhaseDone)
	fmt.Fprintf(stdout, "output          %d records, %d logical bytes\n", len(res.Output), res.OutputLogicalBytes)
	fmt.Fprintf(stdout, "failures        map attempts %d, reduce attempts %d (additional on healthy nodes: %d)\n",
		res.MapAttemptFailures, res.ReduceAttemptFailures, res.AdditionalReduceFailures)
	if len(res.Counters) > 0 {
		fmt.Fprintf(stdout, "counters        %v\n", res.Counters)
	}
	if *events {
		fmt.Fprintln(stdout, "\nevents:")
		fmt.Fprint(stdout, res.Trace.Dump())
	}
	if *timeline {
		fmt.Fprintln(stdout, "\nreduce-progress timeline:")
		for _, p := range res.Trace.Series("reduce-progress") {
			fmt.Fprintf(stdout, "  %7.1fs %6.1f%%\n", p.At.Seconds(), p.Value*100)
		}
	}
	if *cost {
		fmt.Fprintln(stdout, "\ncost:")
		printCost(stdout, res.Events)
	}
	if !res.Completed {
		return 1
	}
	return 0
}

// printCost prints each of the job's work counters (Result.Events) on
// its own line: the field name, then the value.
func printCost(w io.Writer, ev engine.EventStats) {
	v := reflect.ValueOf(ev)
	for i := 0; i < v.NumField(); i++ {
		fmt.Fprintf(w, "  %-14s %v\n", v.Type().Field(i).Name, v.Field(i))
	}
}

// runChaos sweeps n consecutive chaos seeds (chaos.Sweep prints the
// transcript) and returns the process exit code.
func runChaos(stdout, stderr io.Writer, first int64, n, workers int, remote, verbose bool, metricsPath string) int {
	reg := metrics.NewRegistry()
	bad := chaos.Sweep(stdout, first, n, workers, remote, verbose, reg)
	if metricsPath != "" {
		if err := writeMetrics(metricsPath, reg.Snapshot()); err != nil {
			fmt.Fprintln(stderr, "almrun:", err)
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
func runTournament(stdout, stderr io.Writer, first int64, n, workers int, policiesCSV string, verbose, standings bool, seedDetail int64) int {
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
			fmt.Fprint(stdout, sched.String())
		}
	}
	res, err := tournament.Run(opts)
	if err != nil {
		fmt.Fprintln(stderr, "almrun:", err)
		return 2
	}
	switch {
	case seedDetail >= 0:
		fmt.Fprint(stdout, res.FormatSeedDetail(seedDetail))
	case standings:
		fmt.Fprint(stdout, res.FormatStandings())
	default:
		fmt.Fprint(stdout, res.Format())
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

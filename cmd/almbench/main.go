// Command almbench regenerates the paper's evaluation: every figure and
// table from Section V of "Cracking Down MapReduce Failure Amplification
// through Analytics Logging and Migration" (IPPS 2015), plus the
// design-choice ablations.
//
// Usage:
//
//	almbench                  # run everything at paper scale
//	almbench -exp fig8,fig9   # run selected experiments
//	almbench -scale 0.125     # 1/8-size datasets for a quick pass
//	almbench -list            # list experiment IDs
//	almbench -perf            # the `make bench-alloc` CI gate: run the
//	                          # engine harness (internal/perf) and exit 1
//	                          # if any entry's allocations sit more than
//	                          # perf.Tolerance from its pin
//	almbench -metrics-dir m/  # dump one Prometheus-text metrics file
//	                          # per simulated case under m/
//	almbench -scale-probe -nodes 1000,2000,4000,10000
//	                          # one SFM terasort job per cluster size:
//	                          # host time, CPU, max RSS, live heap
//	                          # at the job's end, events, HostVisits
//	                          # and virtual duration
//
// In the text format the tables end with one "(sweep max RSS N MB)"
// line: the process's peak resident set over the run, read with
// getrusage. The json and csv formats print the tables alone.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"alm"
	"alm/internal/perf"
	"alm/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments, output streams and exit code made
// explicit: 0 on success, 1 when an experiment, a metrics write or an
// allocation budget fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("almbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag  = fs.String("exp", "", "comma-separated experiment IDs (default: all)")
		scale    = fs.Float64("scale", 1.0, "dataset scale factor (1.0 = paper sizes)")
		seed     = fs.Int64("seed", 11, "simulation seed")
		listFlag = fs.Bool("list", false, "list experiment IDs and exit")
		workers  = fs.Int("workers", runtime.NumCPU(), "parallel sweep engines (tables are byte-identical at any worker count)")
		format   = fs.String("format", "text", "output format: text | json | csv")
		perfFlag = fs.Bool("perf", false, "run the engine allocation harness instead of experiments; exit 1 when an entry leaves its pin")
		metrDir  = fs.String("metrics-dir", "", "directory to dump one Prometheus-text metrics file per simulated case")
		probe    = fs.Bool("scale-probe", false, "run one SFM terasort job per -nodes size instead of experiments and print host time, CPU, max RSS, live heap at the job's end, events, HostVisits and virtual time")
		nodeList = fs.String("nodes", "1000,2000,4000,10000", "comma-separated node counts for -scale-probe (multiples of 20, ascending)")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	switch *format {
	case "text", "json", "csv":
	default:
		fmt.Fprintf(stderr, "almbench: unknown -format %q (want text, json or csv)\n", *format)
		fs.Usage()
		return 2
	}

	if *perfFlag {
		if violations := perf.CheckBudgets(perf.RunAll(stderr)); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(stderr, "pin breach: %s\n", v)
			}
			return 1
		}
		fmt.Fprintln(stdout, "every entry matches its allocation pin")
		return 0
	}

	if *probe {
		nodes, err := parseNodes(*nodeList)
		if err != nil {
			fmt.Fprintf(stderr, "almbench: %v\n", err)
			return 2
		}
		if err := scaleProbe(nodes, *seed, stdout); err != nil {
			fmt.Fprintf(stderr, "scale probe: %v\n", err)
			return 1
		}
		return 0
	}

	if *listFlag {
		for _, id := range alm.ExperimentIDs() {
			fmt.Fprintf(stdout, "%-10s %s\n", id, alm.ExperimentDescription(id))
		}
		return 0
	}

	ids := alm.ExperimentIDs()
	if *expFlag != "" {
		ids = strings.Split(*expFlag, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	opt := alm.ExperimentOptions{Scale: *scale, Seed: *seed, Workers: *workers}

	// sinkFailed counts metrics-file write errors; the sink runs on
	// whichever worker finishes the owning experiment, so the counter is
	// atomic. Each case key maps to a distinct file, so concurrent
	// writes never collide.
	var sinkFailed atomic.Int32
	if *metrDir != "" {
		if err := os.MkdirAll(*metrDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "metrics-dir: %v\n", err)
			return 1
		}
		opt.MetricsSink = func(caseKey string, snap *alm.MetricsSnapshot) {
			if snap == nil {
				return
			}
			name := strings.ReplaceAll(caseKey, "/", "__") + ".prom"
			path := filepath.Join(*metrDir, name)
			if err := os.WriteFile(path, snap.Prometheus(), 0o644); err != nil {
				fmt.Fprintf(stderr, "metrics %s: %v\n", caseKey, err)
				sinkFailed.Add(1)
			}
		}
	}

	// The full sweep fans experiments over the shared scheduler: each
	// unit renders its table off to the side, delivery prints in ID
	// order, so stdout matches the historical serial loop at any worker
	// count.
	failed := 0
	outs := make([]struct {
		text string
		err  error
	}, len(ids))
	sweep.Do(context.Background(), len(ids), *workers, func(i int) error {
		id := ids[i]
		start := time.Now() //almvet:allow detnow -- wall-clock runtime of the experiment binary itself, not simulated time
		tbl, err := alm.RunExperiment(id, opt)
		if err != nil {
			outs[i].err = fmt.Errorf("experiment %s failed: %v", id, err)
			return nil
		}
		switch *format {
		case "json":
			data, err := json.MarshalIndent(tbl, "", "  ")
			if err != nil {
				outs[i].err = fmt.Errorf("experiment %s: %v", id, err)
				return nil
			}
			outs[i].text = string(data) + "\n"
		case "csv":
			outs[i].text = fmt.Sprintf("# %s: %s\n%s\n", tbl.ID, tbl.Title, tbl.RenderCSV())
		default:
			outs[i].text = tbl.Render() +
				fmt.Sprintf("(%s computed in %v wall time)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
		return nil
	}, func(i int, err error) {
		if err != nil && outs[i].err == nil {
			outs[i].err = err
		}
		if outs[i].err != nil {
			fmt.Fprintln(stderr, outs[i].err)
			failed++
			return
		}
		fmt.Fprint(stdout, outs[i].text)
	})
	if *format == "text" {
		fmt.Fprintf(stdout, "(sweep max RSS %.1f MB)\n", maxRSSMB())
	}
	if failed+int(sinkFailed.Load()) > 0 {
		return 1
	}
	return 0
}

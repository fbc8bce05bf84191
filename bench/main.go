// Command bench is the simulator's benchmark of record. It runs four
// closed-loop batch workloads (see workloads.go), times them on the
// host, checks every rep's output against a pinned digest, and with
// -trace 1 charges the CPU profile to the simulator's layers.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh                                # all four workloads, each in a child process
//	bash bench/run.sh -trace 1                       # ... plus a traced run of each
//	bash bench/run.sh -workload scale_1000 -seed 23  # one workload; the last line is JSON
//	bash bench/run.sh -compare a.json b.json         # compare two saved sets
//	bash bench/run.sh -update-digests                # re-pin the digests for seeds 11 and 23
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// pinnedSeeds are the seeds whose output digests are checked in.
var pinnedSeeds = []int64{11, 23}

// runSeconds is the default measurement window, BENCHMARK.json's
// run_seconds.
const runSeconds = 25

// outDir holds profiles, spans, run details and saved sets, relative to
// the repository root the benchmark runs from.
const outDir = "bench/out"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload in this process and print its result as a JSON line (default: all four, each in a child process)")
		seed    = fs.Int64("seed", 11, "input seed; 11 and 23 have pinned output digests")
		seconds = fs.Float64("seconds", runSeconds, "measurement window of one workload run, in seconds")
		traced  = fs.Int("trace", 0, "1: profile the run and report per-layer metrics instead of end-to-end ones")
		detail  = fs.String("detail", "", "with -workload: also write every sample of every metric to this file")
		save    = fs.String("save", "", "without -workload: write the set of runs to this file (default bench/out/set-<seed>.json)")
		compare = fs.Bool("compare", false, "compare two saved sets given as arguments")
		update  = fs.Bool("update-digests", false, "re-pin the output digests for seeds 11 and 23 in bench/testdata/digests.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "-trace must be 0 or 1")
		return 2
	}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare a.json b.json")
			return 2
		}
		err = compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	case *update:
		err = updateDigests(stderr, "bench/testdata/digests.json")
	case *name != "":
		err = runOne(stdout, *name, *seed, *seconds, *traced == 1, *detail)
	default:
		path := *save
		if path == "" {
			path = filepath.Join(outDir, "set-"+strconv.FormatInt(*seed, 10)+".json")
		}
		err = runSet(stdout, stderr, *seed, *seconds, *traced == 1, path)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runOne measures one workload in this process and prints the result
// line.
func runOne(stdout io.Writer, name string, seed int64, seconds float64, traced bool, detail string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	pinned, err := pinnedDigest(name, seed)
	if err != nil {
		return err
	}
	rr, err := measure(runConfig{w: w, seed: seed, seconds: seconds, trace: traced, outDir: outDir, pinned: pinned})
	if err != nil {
		return err
	}
	line, err := rr.resultLine()
	if err != nil {
		return err
	}
	if detail != "" {
		if err := writeJSON(detail, rr); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// set is a saved full run: every workload untraced and, with -trace 1,
// traced.
type set struct {
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Runs    []*runReport `json:"runs"`
}

// runSet runs every workload in its own child process, one at a time,
// prints their metrics and saves them.
func runSet(stdout, stderr io.Writer, seed int64, seconds float64, traced bool, savePath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	s := set{Seed: seed, Seconds: seconds}
	failed := 0
	for _, w := range allWorkloads {
		modes := []string{"0"}
		if traced {
			modes = append(modes, "1")
		}
		var runs []*runReport
		for _, mode := range modes {
			detail := filepath.Join(outDir, w.name+".trace"+mode+".json")
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", mode, "-detail", detail)
			cmd.Stdout, cmd.Stderr = stderr, stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			var rr runReport
			if err := readJSON(detail, &rr); err != nil {
				return err
			}
			failed += rr.Failed
			runs = append(runs, &rr)
		}
		printRuns(stdout, runs)
		s.Runs = append(s.Runs, runs...)
	}
	if err := writeJSON(savePath, s); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "saved %s\n", savePath)
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

// updateDigests measures one rep of every workload for each pinned seed
// and writes their digests to path.
func updateDigests(stderr io.Writer, path string) error {
	pinned := map[string]map[string]string{}
	for _, w := range allWorkloads {
		pinned[w.name] = map[string]string{}
		for _, seed := range pinnedSeeds {
			rr, err := measure(runConfig{w: w, seed: seed})
			if err != nil {
				return err
			}
			if rr.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d ops failed", w.name, seed, rr.Failed, rr.Attempted)
			}
			pinned[w.name][strconv.FormatInt(seed, 10)] = rr.Digest
			fmt.Fprintf(stderr, "%-12s seed %-3d %s\n", w.name, seed, rr.Digest)
		}
	}
	return writeJSON(path, pinned)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

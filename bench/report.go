package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// judged are the metrics -compare gives a verdict on: the end-to-end
// ones and, where a workload reports it, the event rate.
var judged = append(append([]metricDef{}, endToEnd...), eventRate)

// printRuns prints one workload's untraced metrics and, when its traced
// run is given too, the per-layer metrics and the tracing overhead.
func printRuns(w io.Writer, runs []*runReport) {
	var plain *runReport
	for _, rr := range runs {
		fmt.Fprintf(w, "\n== %s seed %d trace %v: %d reps, %d ops, %d failed, digest %.16s ==\n",
			rr.Workload, rr.Seed, rr.Trace, rr.Reps, rr.Attempted, rr.Failed, rr.Digest)
		fmt.Fprintf(w, "%-34s %14s %14s %14s %5s  %s\n", "metric", "median", "q1", "q3", "n", "unit")
		row := func(name string) {
			if s := rr.Metrics[name]; s != nil {
				q1, q3 := quartiles(s.Values)
				fmt.Fprintf(w, "%-34s %14.6g %14.6g %14.6g %5d  %s\n", name, median(s.Values), q1, q3, len(s.Values), s.Unit)
			}
		}
		if !rr.Trace {
			plain = rr
			for _, d := range judged {
				row(d.Name)
			}
			for _, name := range []string{"fail_frac", "op_ms_p50", "op_ms_p99", "op_n"} {
				row(name)
			}
			for _, name := range sortedNames(rr, "experiments.") {
				row(name)
			}
			continue
		}
		for _, l := range layers {
			row("cpu." + l + ".self_s")
			row("cpu." + l + ".share")
		}
		for _, d := range perLayer {
			if !strings.HasPrefix(d.Name, "cpu.") {
				row(d.Name)
			}
		}
		for _, name := range []string{"sim.events_stopped", "shuffletier.stall_s", "engine.run_setup_ms_p50", "engine.run_setup_n"} {
			row(name)
		}
		if plain != nil {
			base := median(plain.Metrics["cpu_s"].Values)
			over := median(rr.Metrics["traced.cpu_s"].Values) - base
			fmt.Fprintf(w, "tracing overhead: %+.3f s cpu per rep (%+.1f%% of the untraced median %.3f s)\n", over, 100*over/base, base)
		}
	}
}

func sortedNames(rr *runReport, prefix string) []string {
	var names []string
	for name := range rr.Metrics {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// compareFiles prints, for every workload and end-to-end metric of two
// saved sets, both medians and quartiles, the change and a verdict, and
// for every traced workload whether the modelled counts are identical.
func compareFiles(w io.Writer, pathA, pathB string) error {
	var a, b set
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	fmt.Fprintf(w, "# a = %s (seed %d), b = %s (seed %d)\n", pathA, a.Seed, pathB, b.Seed)
	fmt.Fprintf(w, "%-12s %-28s %12s %23s %12s %23s %8s  %s\n", "workload", "metric", "a median", "a q1..q3", "b median", "b q1..q3", "delta", "verdict")
	for _, rb := range b.Runs {
		ra := findRun(a, rb.Workload, rb.Trace)
		if ra == nil {
			fmt.Fprintf(w, "%-12s (trace %v) only in b\n", rb.Workload, rb.Trace)
			continue
		}
		if rb.Trace {
			for _, name := range modelledCounts {
				va, vb := ra.Metrics[name], rb.Metrics[name]
				if va == nil || vb == nil {
					continue
				}
				v := "same"
				if median(va.Values) != median(vb.Values) {
					v = "differs"
				}
				fmt.Fprintf(w, "%-12s %-28s %12.6g %23s %12.6g %23s %8s  %s\n", rb.Workload, name, median(va.Values), "", median(vb.Values), "", "", v)
			}
			continue
		}
		for _, d := range judged {
			va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			if va == nil || vb == nil {
				continue
			}
			delta, v := verdict(d, va.Values, vb.Values)
			fmt.Fprintf(w, "%-12s %-28s %12.6g %23s %12.6g %23s %+7.1f%%  %s\n", rb.Workload, d.Name,
				median(va.Values), quartileText(va.Values), median(vb.Values), quartileText(vb.Values), 100*delta, v)
		}
		fa, fb := float64(ra.Failed)/float64(ra.Attempted), float64(rb.Failed)/float64(rb.Attempted)
		v := "within"
		if fb > fa {
			v = "worse"
		} else if fb < fa {
			v = "better"
		}
		fmt.Fprintf(w, "%-12s %-28s %12.6g %23s %12.6g %23s %8s  %s\n", rb.Workload, "fail_frac", fa, "", fb, "", "", v)
	}
	return nil
}

func findRun(s set, workload string, trace bool) *runReport {
	for _, rr := range s.Runs {
		if rr.Workload == workload && rr.Trace == trace {
			return rr
		}
	}
	return nil
}

func quartileText(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g..%.5g", q1, q3)
}

// verdict compares b against a: "unresolved" when either side's
// quartile spread exceeds the metric's bound, else "worse" or "better"
// when the medians differ by more than the bound, else "within".
func verdict(d metricDef, a, b []float64) (delta float64, v string) {
	ma, mb := median(a), median(b)
	delta = (mb - ma) / ma
	if max(spread(a), spread(b)) > d.Bound {
		return delta, "unresolved"
	}
	worse := delta
	if d.Better == "higher" {
		worse = -delta
	}
	switch {
	case worse > d.Bound:
		return delta, "worse"
	case worse < -d.Bound:
		return delta, "better"
	}
	return delta, "within"
}

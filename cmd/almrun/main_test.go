package main

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"alm"
)

// TestCost: -cost appends the job's work counters, one per line, and
// they equal Result.Events of the same job run through alm.Run; the
// output before them is exactly the output without -cost.
func TestCost(t *testing.T) {
	args := []string{"-workload", "wordcount", "-size-gb", "1", "-reduces", "2", "-mode", "alm", "-seed", "7"}
	var plain, withCost, stderr bytes.Buffer
	if code := run(args, &plain, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	if code := run(append(args, "-cost"), &withCost, &stderr); code != 0 {
		t.Fatalf("-cost: exit %d; stderr:\n%s", code, stderr.String())
	}
	rest, ok := strings.CutPrefix(withCost.String(), plain.String())
	if !ok {
		t.Fatalf("-cost changed the job's report:\n%s\nwithout -cost:\n%s", withCost.String(), plain.String())
	}
	body, ok := strings.CutPrefix(rest, "\ncost:\n")
	if !ok {
		t.Fatalf("no cost section after the report:\n%s", rest)
	}

	w, err := alm.WorkloadByName("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	res, err := alm.Run(alm.JobSpec{Workload: w, InputBytes: 1 << 30, NumReduces: 2, Mode: alm.ModeALM, Seed: 7},
		alm.DefaultClusterSpec(), alm.WithFaults(nil), alm.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if res.Events.Processed == 0 || res.Events.AllocPasses == 0 {
		t.Fatalf("the job did no work: %+v", res.Events)
	}
	v := reflect.ValueOf(res.Events)
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) != v.NumField() {
		t.Fatalf("%d cost lines, want one per counter (%d):\n%s", len(lines), v.NumField(), body)
	}
	for i, line := range lines {
		f := strings.Fields(line)
		name := v.Type().Field(i).Name
		if want := fmt.Sprint(v.Field(i)); len(f) != 2 || f[0] != name || f[1] != want {
			t.Errorf("cost line %q, want %s %s", line, name, want)
		}
	}
}

// TestCostAloneOnOneJob: -cost with a sweep is a usage error raised
// before anything runs.
func TestCostAloneOnOneJob(t *testing.T) {
	for _, sweep := range []string{"-chaos", "-tournament"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{sweep, "-cost", "-seeds", "1"}, &stdout, &stderr); code != 2 {
			t.Errorf("%s -cost: exit %d, want 2", sweep, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "-cost") {
			t.Errorf("%s -cost: stdout %q, stderr %q", sweep, stdout.String(), stderr.String())
		}
	}
}

package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFormatFlag: text, json and csv are accepted; any other -format is
// a usage error (exit 2) raised before any experiment runs, not a silent
// fall-back to text.
func TestFormatFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-format", "xml", "-exp", "fig3", "-scale", "0.01"}, 2},
		{[]string{"-format", "text", "-list"}, 0},
		{[]string{"-format", "json", "-list"}, 0},
		{[]string{"-format", "csv", "-list"}, 0},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d; stderr:\n%s", tc.args, code, tc.code, stderr.String())
		}
		if code == 2 {
			if stdout.Len() != 0 {
				t.Errorf("%v: output despite the usage error:\n%s", tc.args, stdout.String())
			}
			if !strings.Contains(stderr.String(), `unknown -format "xml"`) {
				t.Errorf("%v: stderr does not name the bad format:\n%s", tc.args, stderr.String())
			}
		}
	}
}

// TestPerfHasNoBaselineFlags: -perf always checks the allocation
// budgets and writes no baseline file, so the flags that once selected
// otherwise are usage errors rather than silent no-ops.
func TestPerfHasNoBaselineFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-perf-sweep"},
		{"-compare", "old.json"},
		{"-perf-out", "x.json"},
		{"-check-budgets"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined") {
			t.Errorf("%v: stderr:\n%s", args, stderr.String())
		}
	}
}

// TestScaleProbe: -scale-probe prints a header and one row per -nodes
// size; a size that is not a positive multiple of the rack size is a
// usage error raised before any job runs.
func TestScaleProbe(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale-probe", "-nodes", "20"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "host_visits") {
		t.Fatalf("want a header and one row, got:\n%s", stdout.String())
	}
	if f := strings.Fields(lines[1]); len(f) != 9 || f[0] != "20" || f[1] != "40" {
		t.Fatalf("row %q: want 9 fields for 20 nodes and 40 maps", lines[1])
	}
	for _, bad := range []string{"30", "0", "1000,x"} {
		stdout.Reset()
		stderr.Reset()
		if code := run([]string{"-scale-probe", "-nodes", bad}, &stdout, &stderr); code != 2 {
			t.Errorf("-nodes %s: exit %d, want 2", bad, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-nodes %s: output despite the usage error:\n%s", bad, stdout.String())
		}
	}
}

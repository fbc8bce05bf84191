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

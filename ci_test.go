package alm

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIMatchesMakefile keeps one definition per CI gate: every `run:`
// step in the workflow is exactly `make <target>`, each target runs
// once, and the set of targets equals the prerequisites of the
// Makefile's `ci` target, so `make ci` locally is the CI pipeline.
func TestCIMatchesMakefile(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	workflow, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}

	var prereqs []string
	for _, line := range strings.Split(string(makefile), "\n") {
		if rest, ok := strings.CutPrefix(line, "ci:"); ok {
			prereqs = strings.Fields(rest)
		}
	}
	if len(prereqs) == 0 {
		t.Fatal("Makefile has no `ci:` target with prerequisites")
	}

	runRe := regexp.MustCompile(`^\s*(?:-\s+)?run:\s*(.*)$`)
	makeRe := regexp.MustCompile(`^make ([A-Za-z0-9_-]+)$`)
	var steps []string
	for i, line := range strings.Split(string(workflow), "\n") {
		m := runRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		mm := makeRe.FindStringSubmatch(strings.TrimSpace(m[1]))
		if mm == nil {
			t.Errorf("ci.yml:%d: step runs %q; want `make <target>`", i+1, m[1])
			continue
		}
		steps = append(steps, mm[1])
	}

	for _, list := range []struct {
		where string
		names []string
	}{{"ci.yml", steps}, {"Makefile ci:", prereqs}} {
		seen := map[string]bool{}
		for _, n := range list.names {
			if seen[n] {
				t.Errorf("%s runs %s twice", list.where, n)
			}
			seen[n] = true
		}
	}
	for _, n := range prereqs {
		if !slices.Contains(steps, n) {
			t.Errorf("`make ci` runs %s but no CI step does", n)
		}
	}
	for _, n := range steps {
		if !slices.Contains(prereqs, n) {
			t.Errorf("CI runs `make %s` but `make ci` does not", n)
		}
	}
}

package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestDiffFlagUndefined: -fix has no dry-run mode (go vet is the gate
// for outstanding findings), so `-fix -diff` is a usage error rather
// than an in-place rewrite.
func TestDiffFlagUndefined(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fix", "-diff", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -diff") {
		t.Errorf("stderr:\n%s", stderr.String())
	}
}

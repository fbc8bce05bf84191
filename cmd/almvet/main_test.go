package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"alm/internal/lint/loader"
)

// TestDiffFlagUndefined and TestFixFlagUndefined: almvet only reports
// (`make vet` is the gate for outstanding findings) and rewrites no
// file, so `-diff` and `-fix` are usage errors.
func TestDiffFlagUndefined(t *testing.T) {
	assertUsageError(t, "-diff")
}

func TestFixFlagUndefined(t *testing.T) {
	assertUsageError(t, "-fix")
}

func assertUsageError(t *testing.T, flag string) {
	t.Helper()
	var stderr bytes.Buffer
	if code := run([]string{flag, "./..."}, &stderr); code != 2 {
		t.Fatalf("%s: exit %d, want 2", flag, code)
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: "+flag) {
		t.Errorf("stderr:\n%s", stderr.String())
	}
}

// literalSeed is flagged by seedflow wherever it is linted.
const literalSeed = `package %s

import "math/rand"

func R() *rand.Rand { return rand.New(rand.NewSource(7)) }
`

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestNestedModuleSkipped: `./...` stops at a directory holding its own
// go.mod, as `go list ./...` does, so a finding planted in a nested
// module is not reported while the same plant in the main module is.
func TestNestedModuleSkipped(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, "go.mod"), "module alm\n\ngo 1.24\n")
	writeFile(t, filepath.Join(root, "a.go"), "package alm\n")
	writeFile(t, filepath.Join(root, "sub", "b.go"), "package sub\n")
	writeFile(t, filepath.Join(root, "nested", "go.mod"), "module alm/nested\n\ngo 1.24\n")
	writeFile(t, filepath.Join(root, "nested", "deep", "d.go"), fmt.Sprintf(literalSeed, "deep"))
	t.Chdir(root)

	l, err := loader.New(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := expandPatterns(l, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"alm", "alm/sub"}; !reflect.DeepEqual(paths, want) {
		t.Errorf("expandPatterns(./...) = %v, want %v", paths, want)
	}

	var stderr bytes.Buffer
	if code := run([]string{"./..."}, &stderr); code != 0 {
		t.Fatalf("nested-module plant: exit %d, want 0; stderr:\n%s", code, stderr.String())
	}
	writeFile(t, filepath.Join(root, "sub", "c.go"), fmt.Sprintf(literalSeed, "sub"))
	stderr.Reset()
	if code := run([]string{"./..."}, &stderr); code != 2 || !strings.Contains(stderr.String(), "[seedflow]") {
		t.Fatalf("main-module plant: exit %d, want 2 with a seedflow finding; stderr:\n%s", code, stderr.String())
	}
}

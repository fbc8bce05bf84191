// Command almvet is the repo's vet tool: the analyzer suite (detnow,
// droppederr, locksafe, seedflow) that enforces the simulator's
// determinism contract, the ALG no-silent-log-loss rule, lock
// discipline and seed provenance. See DESIGN.md "Static analysis gates".
//
//	almvet ./...        # report every finding; exit 2 if there are any
//
// almvet loads and type-checks packages itself through
// internal/lint/loader, so it needs no go tool, and prints diagnostics in
// a byte-stable global order (file, line, column, analyzer). `make vet`
// runs it over the module and fails on every finding. It takes no flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"alm/internal/lint/analysis"
	"alm/internal/lint/driver"
	"alm/internal/lint/loader"
	"alm/internal/lint/registry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("almvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	return vet(fs.Args(), stderr)
}

// vet loads the packages the patterns name and runs the scoped suite
// over each.
// Diagnostics from every package are collected first and emitted in one
// byte-stable global order — (file, line, column, analyzer) — so runs
// over different pattern spellings of the same package set produce
// identical output.
func vet(patterns []string, stderr io.Writer) int {
	l, err := loader.New(".")
	if err != nil {
		fmt.Fprintf(stderr, "almvet: %v\n", err)
		return 1
	}
	paths, err := expandPatterns(l, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "almvet: %v\n", err)
		return 1
	}
	exit := 0
	var all []analysis.Diagnostic
	for _, path := range paths {
		var analyzers []*analysis.Analyzer
		for _, s := range registry.All() {
			if s.AppliesTo(path) {
				analyzers = append(analyzers, s.Analyzer)
			}
		}
		if len(analyzers) == 0 {
			continue
		}
		pkg, err := l.Load(path)
		if err != nil {
			fmt.Fprintf(stderr, "almvet: %v\n", err)
			exit = 1
			continue
		}
		if len(pkg.TypeErrors) > 0 {
			for _, e := range pkg.TypeErrors {
				fmt.Fprintf(stderr, "almvet: %s: %v\n", path, e)
			}
			exit = 1
			continue
		}
		diags, err := driver.Run(driver.Target{Fset: l.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info}, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "almvet: %v\n", err)
			exit = 1
			continue
		}
		all = append(all, diags...)
	}

	sort.SliceStable(all, func(i, j int) bool {
		pi, pj := l.Fset.Position(all[i].Pos), l.Fset.Position(all[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return all[i].Category < all[j].Category
	})

	for _, d := range all {
		fmt.Fprintf(stderr, "%s\n", driver.Format(l.Fset, d))
	}
	if len(all) > 0 && exit == 0 {
		exit = 2
	}
	return exit
}

// expandPatterns resolves vet-style package patterns ("./...", "./x",
// import paths) against the loader's module to a sorted import path list.
func expandPatterns(l *loader.Loader, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	add := func(dir string) error {
		path, err := importPathFor(l, dir)
		if err != nil {
			return err
		}
		if !seen[path] && hasGoFiles(dir) {
			seen[path] = true
			out = append(out, path)
		}
		return nil
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Join(cwd, strings.TrimSuffix(rest, "/"))
			err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
					name == "testdata" || name == "vendor" || name == "bin") {
					return filepath.SkipDir
				}
				// A nested go.mod starts another module (bench/ has one),
				// which `go list ./...` leaves out too.
				if p != l.ModuleRoot && fileExists(filepath.Join(p, "go.mod")) {
					return filepath.SkipDir
				}
				return add(p)
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		dir := pat
		if !filepath.IsAbs(dir) && (strings.HasPrefix(pat, "./") || pat == "." || dirExists(filepath.Join(cwd, pat))) {
			dir = filepath.Join(cwd, pat)
		} else if rest, ok := strings.CutPrefix(pat, l.ModulePath+"/"); ok {
			dir = filepath.Join(l.ModuleRoot, filepath.FromSlash(rest))
		} else if pat == l.ModulePath {
			dir = l.ModuleRoot
		}
		if !dirExists(dir) {
			return nil, fmt.Errorf("package pattern %q: no such directory", pat)
		}
		if err := add(dir); err != nil {
			return nil, err
		}
	}
	// WalkDir yields lexical order per pattern, but multiple patterns can
	// interleave arbitrarily; sort so the load order (and any load errors)
	// is stable regardless of how the package set was spelled.
	sort.Strings(out)
	return out, nil
}

func importPathFor(l *loader.Loader, dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, l.ModulePath)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			return true
		}
	}
	return false
}

func fileExists(p string) bool {
	fi, err := os.Stat(p)
	return err == nil && !fi.IsDir()
}

func dirExists(p string) bool {
	fi, err := os.Stat(p)
	return err == nil && fi.IsDir()
}

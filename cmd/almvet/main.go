// Command almvet is the repo's vet tool: the analyzer suite (detnow,
// droppederr, hotalloc, locksafe, seedflow, and the flow-sensitive
// maporder, timerflow, allocflow) that enforces the simulator's
// determinism contract, the ALG no-silent-log-loss rule, lock
// discipline, and hot-path allocation budgets. See DESIGN.md "Static
// analysis gates".
//
// Two modes:
//
//	go vet -vettool=$(pwd)/bin/almvet ./...   # driven by cmd/go (CI mode)
//	almvet ./...                              # standalone, no go tool needed
//
// Under cmd/go, almvet speaks the vettool protocol (-V=full handshake,
// -flags JSON, then one vet.cfg per package unit); standalone mode loads
// and type-checks packages itself through internal/lint/loader, printing
// diagnostics in a byte-stable global order (file, line, column,
// analyzer).
//
// Analyzer selection mirrors vet: `almvet -detnow ./...` runs only
// detnow; `almvet -detnow=false ./...` runs everything else.
//
// Standalone mode can also apply the analyzers' suggested fixes:
//
//	almvet -fix ./...        # rewrite files in place (gofmt-clean)
//
// -fix exits 2 when a diagnostic has no fix. The CI gate is the go vet
// run, which exits non-zero on every diagnostic, fixable or not.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"alm/internal/lint/analysis"
	"alm/internal/lint/driver"
	"alm/internal/lint/fixer"
	"alm/internal/lint/loader"
	"alm/internal/lint/registry"
	"alm/internal/lint/unitchecker"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("almvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	vFlag := fs.String("V", "", "print version and exit (cmd/go handshake)")
	flagsFlag := fs.Bool("flags", false, "print JSON flag descriptions and exit (cmd/go handshake)")
	jsonFlag := fs.Bool("json", false, "accepted for vet compatibility (ignored)")
	_ = jsonFlag
	fixFlag := fs.Bool("fix", false, "apply suggested fixes (standalone mode only)")
	analyzerFlags := make(map[string]*bool)
	for _, s := range registry.All() {
		analyzerFlags[s.Name] = fs.Bool(s.Name, false, "enable only the listed analyzers: "+firstLine(s.Doc))
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *vFlag != "" {
		// cmd/go folds this whole line into the build-cache key for vet
		// results, so it must change whenever the tool's behavior can:
		// hash the binary itself. (A literal like "devel" is rejected.)
		fmt.Fprintf(stdout, "almvet version almvet-%s\n", selfHash())
		return 0
	}
	if *flagsFlag {
		type jsonFlagDesc struct {
			Name  string
			Bool  bool
			Usage string
		}
		var descs []jsonFlagDesc
		for _, s := range registry.All() {
			descs = append(descs, jsonFlagDesc{Name: s.Name, Bool: true, Usage: firstLine(s.Doc)})
		}
		data, err := json.MarshalIndent(descs, "", "\t")
		if err != nil {
			fmt.Fprintf(stderr, "almvet: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", data)
		return 0
	}

	enable := selection(fs, analyzerFlags)

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		if *fixFlag {
			fmt.Fprintln(stderr, "almvet: -fix is a standalone-mode flag; run almvet directly, not through go vet")
			return 2
		}
		return unitchecker.Main(rest[0], enable, stderr)
	}
	return standalone(rest, enable, *fixFlag, stderr)
}

// selection turns the explicitly-set analyzer flags into an enable set,
// with vet's semantics: naming any analyzer runs only those named true;
// naming only =false exclusions runs everything else; nil means all.
func selection(fs *flag.FlagSet, analyzerFlags map[string]*bool) map[string]bool {
	explicit := make(map[string]bool)
	anyTrue := false
	fs.Visit(func(f *flag.Flag) {
		if v, ok := analyzerFlags[f.Name]; ok {
			explicit[f.Name] = *v
			if *v {
				anyTrue = true
			}
		}
	})
	if len(explicit) == 0 {
		return nil
	}
	enable := make(map[string]bool)
	for _, s := range registry.All() {
		if anyTrue {
			enable[s.Name] = explicit[s.Name]
		} else {
			v, set := explicit[s.Name]
			enable[s.Name] = !set || v
		}
	}
	return enable
}

// standalone loads package patterns itself and runs the scoped suite —
// `almvet ./...` with no go-tool driver, handy for editors and quick
// runs; with fix set it rewrites files with the suggested fixes.
// Diagnostics from every package are collected first and emitted in one
// byte-stable global order — (file, line, column, analyzer) — so runs
// over different pattern spellings of the same package set produce
// identical output.
func standalone(patterns []string, enable map[string]bool, fix bool, stderr io.Writer) int {
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
			if enable != nil && !enable[s.Name] {
				continue
			}
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
		diags, err := driver.Run(driver.Target{Fset: l.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info},
			analyzers, driver.Options{})
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

	if !fix {
		for _, d := range all {
			fmt.Fprintf(stderr, "%s\n", driver.Format(l.Fset, d))
		}
		if len(all) > 0 && exit == 0 {
			exit = 2
		}
		return exit
	}
	return applyFixes(l, all, stderr, exit)
}

// applyFixes rewrites files with the suggested fixes for the collected
// diagnostics. Diagnostics without an applied fix are still printed:
// -fix resolves what it can and reports the rest.
func applyFixes(l *loader.Loader, all []analysis.Diagnostic, stderr io.Writer, exit int) int {
	byFile := make(map[string][]analysis.Diagnostic)
	var files []string
	fixable := make(map[string]bool)
	for _, d := range all {
		name := l.Fset.Position(d.Pos).Filename
		if _, ok := byFile[name]; !ok {
			files = append(files, name)
		}
		byFile[name] = append(byFile[name], d)
		if len(d.SuggestedFixes) > 0 {
			fixable[name] = true
		}
	}
	sort.Strings(files)

	cwd, _ := os.Getwd()
	for _, name := range files {
		if !fixable[name] {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintf(stderr, "almvet: %v\n", err)
			exit = 1
			continue
		}
		fixed, applied, err := fixer.Apply(l.Fset, name, src, byFile[name])
		if err != nil {
			fmt.Fprintf(stderr, "almvet: %s: %v\n", name, err)
			exit = 1
			continue
		}
		if applied == 0 || bytes.Equal(fixed, src) {
			continue
		}
		display := name
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
				display = rel
			}
		}
		if err := os.WriteFile(name, fixed, 0o644); err != nil {
			fmt.Fprintf(stderr, "almvet: %v\n", err)
			exit = 1
			continue
		}
		fmt.Fprintf(stderr, "almvet: %s: applied %d fix(es)\n", display, applied)
	}

	// Report what -fix could not resolve. (After an in-place rewrite the
	// positions refer to the pre-fix file, so only fixless diagnostics
	// are printed — re-run almvet for fresh positions.)
	unfixed := 0
	for _, d := range all {
		if len(d.SuggestedFixes) == 0 {
			fmt.Fprintf(stderr, "%s\n", driver.Format(l.Fset, d))
			unfixed++
		}
	}
	if exit == 0 && unfixed > 0 {
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

func dirExists(p string) bool {
	fi, err := os.Stat(p)
	return err == nil && fi.IsDir()
}

// selfHash content-hashes the running binary for the -V=full tool ID.
func selfHash() string {
	exe, err := os.Executable()
	if err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum := sha256.Sum256(data)
			return fmt.Sprintf("%x", sum[:6])
		}
	}
	return "unhashed"
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

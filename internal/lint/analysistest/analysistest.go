// Package analysistest runs analyzers over fixture packages under
// testdata/src and checks their diagnostics against `// want` comments,
// mirroring golang.org/x/tools/go/analysis/analysistest closely enough
// that fixtures are written the same way:
//
//	start := time.Now() // want `time\.Now`
//
// Each quoted string after `want` is a regexp that must match a
// diagnostic reported on that line; every diagnostic must be wanted and
// every want must be matched. Fixtures run through the same driver as
// almvet itself, so //almvet:allow directives are honoured — which is how
// the suppression fixtures prove single-line scoping.
package analysistest

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"

	"testing"

	"alm/internal/lint/analysis"
	"alm/internal/lint/driver"
	"alm/internal/lint/loader"
)

// wantRe matches the expectation comment syntax: // want "re" `re` ...
var wantRe = regexp.MustCompile("//\\s*want\\s+((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)")

var argRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// Run loads testdata/src/<pkg> relative to the caller's test directory
// and checks analyzer diagnostics against its want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkg string) {
	t.Helper()
	RunWithSuite(t, testdata, []*analysis.Analyzer{a}, pkg)
}

// RunWithSuite is Run for several analyzers at once (used by the
// suppression fixtures, which exercise directive scoping across the
// whole suite).
func RunWithSuite(t *testing.T, testdata string, analyzers []*analysis.Analyzer, pkg string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", pkg)
	l, err := loader.New(dir)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	p, err := l.LoadDir(dir, pkg)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	for _, terr := range p.TypeErrors {
		t.Errorf("fixture does not type-check: %v", terr)
	}
	if t.Failed() {
		t.FailNow()
	}
	diags, err := driver.Run(driver.Target{
		Fset:  l.Fset,
		Files: p.Files,
		Pkg:   p.Types,
		Info:  p.Info,
	}, analyzers)
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	checkWants(t, l.Fset, p, diags)
}

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	met  bool
}

func checkWants(t *testing.T, fset *token.FileSet, p *loader.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range argRe.FindAllString(m[1], -1) {
					var pat string
					if q[0] == '`' {
						pat = q[1 : len(q)-1]
					} else {
						var err error
						pat, err = strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.met || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", pos, d.Category, d.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}

// Testdata returns the conventional testdata root shared by the analyzer
// test packages: internal/lint/testdata, resolved relative to the test's
// working directory (internal/lint/<analyzer>).
func Testdata() string {
	return filepath.Join("..", "testdata")
}

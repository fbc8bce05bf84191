// Package analysis is a self-contained, dependency-free re-implementation
// of the core of golang.org/x/tools/go/analysis, just large enough to host
// the almvet analyzer suite. The repo builds offline (no module proxy), so
// we cannot depend on x/tools; the API mirrors it closely enough that the
// analyzers could be ported to the real framework by changing one import.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //almvet:allow <name> suppression directives.
	Name string

	// Doc is a one-paragraph description of what the analyzer enforces
	// and why.
	Doc string

	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass provides one analyzed package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // package syntax, comments included
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver fills in the analyzer
	// name and applies suppression directives.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Category string // analyzer name; set by the driver
}

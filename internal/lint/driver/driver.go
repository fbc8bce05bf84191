// Package driver runs a set of analyzers over one type-checked package,
// applies //almvet:allow suppression directives, and returns the surviving
// diagnostics in a stable order. almvet and the analysistest harness both
// funnel through here, so suppression semantics are identical everywhere.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"alm/internal/lint/analysis"
)

// Target is one package to analyze.
type Target struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Run executes the analyzers and returns directive-filtered diagnostics
// sorted by position.
func Run(t Target, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	allows := collectAllows(t.Fset, t.Files)
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      t.Fset,
			Files:     t.Files,
			Pkg:       t.Pkg,
			TypesInfo: t.Info,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			d.Category = name
			if allows.suppressed(t.Fset, d) {
				return
			}
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := t.Fset.Position(diags[i].Pos), t.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Category < diags[j].Category
	})
	return diags, nil
}

// Format renders a diagnostic the way vet does.
func Format(fset *token.FileSet, d analysis.Diagnostic) string {
	return fmt.Sprintf("%s: [%s] %s", fset.Position(d.Pos), d.Category, d.Message)
}

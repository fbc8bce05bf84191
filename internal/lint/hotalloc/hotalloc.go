// Package hotalloc implements the `hotalloc` analyzer: functions marked
// with an `//alm:hotpath` directive sit on the event-engine's per-fetch,
// per-spill or per-merge paths, where the allocation budgets declared in
// internal/perf (the `make bench-alloc` gate) are won or lost. Inside such functions the analyzer
// forbids the two allocation patterns the perf work eliminated —
// fmt.Sprint-family calls (interface boxing plus a fresh string per
// call) and runtime string concatenation — so they cannot creep back in
// unnoticed between benchmark runs.
//
// The directive goes in the function's doc comment:
//
//	// deliver stages one fetched MOF on the spill path.
//	//
//	//alm:hotpath
//	func (r *reduceExec) deliver(...) { ... }
//
// Function literals defined inside a marked function are checked too:
// a closure on a hot path is the hot path. Deliberate exceptions (a
// render that runs once and is cached, a panic message) carry a
// standard `//almvet:allow hotalloc -- reason` directive.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"alm/internal/lint/analysis"
)

// Analyzer is the hotalloc analysis.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "forbid fmt.Sprint-family calls and runtime string concatenation " +
		"in functions marked //alm:hotpath (the allocation-budgeted engine hot paths)",
	Run: run,
}

// sprintFamily lists the fmt constructors that allocate their result.
// Fprintf and friends are not listed: they write to a caller-supplied
// sink, and a hot path holding an io.Writer has already made its choice.
var sprintFamily = map[string]bool{
	"Sprintf":  true,
	"Sprint":   true,
	"Sprintln": true,
	"Errorf":   true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd.Doc) {
				continue
			}
			checkBody(pass, fd.Body)
		}
	}
	return nil
}

// isHotpath reports whether the doc comment carries the marker. The
// directive form (no space after //) is required, matching go:build and
// friends; a prose mention of the word does not arm the analyzer.
func isHotpath(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//alm:hotpath") {
			return true
		}
	}
	return false
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isRuntimeStringConcat(pass, n) {
				pass.Reportf(n.OpPos, "string concatenation allocates on an //alm:hotpath function; render into a reused []byte or intern the result")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass, n.Lhs[0]) {
				pass.Reportf(n.TokPos, "string += allocates on an //alm:hotpath function; render into a reused []byte or intern the result")
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "fmt" {
		return
	}
	if sprintFamily[obj.Name()] {
		pass.Reportf(call.Pos(), "fmt.%s allocates on an //alm:hotpath function; use strconv appenders or a precomputed name", obj.Name())
	}
}

// isRuntimeStringConcat reports whether e is a string + that survives to
// runtime. Constant-folded concatenation (both operands constant) costs
// nothing and is ignored.
func isRuntimeStringConcat(pass *analysis.Pass, e *ast.BinaryExpr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.Value != nil {
		return false // folded at compile time
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isString(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.Types[e].Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

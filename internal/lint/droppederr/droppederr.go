// Package droppederr implements the `droppederr` analyzer: errors
// produced by the ALG persistence surface (internal/dfs writes and
// internal/core log-record validation) must not be silently discarded.
//
// The paper's recovery guarantee assumes the newest ALG log record is
// durable: SFM migrates a failed ReduceTask and replays from the logged
// position (Algorithm 1). A checkpoint write whose error vanishes — into
// `_`, into an ExprStmt, into a `func(error)` callback that never reads
// its parameter, or into an err variable that is overwritten before being
// checked — leaves the scheduler believing state exists that does not.
// Resume-from-nothing is precisely the failure amplification the paper
// cracks down on, so the write path gets its own analyzer.
package droppederr

import (
	"go/ast"
	"go/types"

	"alm/internal/lint/analysis"
)

// Analyzer is the droppederr analysis.
var Analyzer = &analysis.Analyzer{
	Name: "droppederr",
	Doc: "flag discarded, unread, or callback-swallowed errors from the ALG " +
		"persistence surface (internal/dfs writes, internal/core log-record validation)",
	Run: run,
}

// ProtectedPkgs is the set of package paths whose returned errors (and
// error-typed callbacks) must be consumed. Tests may override it.
var ProtectedPkgs = map[string]bool{
	"alm/internal/dfs":  true,
	"alm/internal/core": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				checkBlock(pass, n.List)
			case *ast.CallExpr:
				checkCallbackArgs(pass, n)
			}
			return true
		})
	}
	return nil
}

// protectedCall reports whether the call's callee lives in a protected
// package and returns an error as its final result.
func protectedCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !ProtectedPkgs[fn.Pkg().Path()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return isErrorType(last)
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// checkBlock scans one statement list for discarded and unread errors.
// Working at the block level (rather than per-statement) gives the
// shadow check a window of following statements to search for a read.
func checkBlock(pass *analysis.Pass, stmts []ast.Stmt) {
	for i, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && protectedCall(pass, call) {
				pass.Reportf(call.Pos(), "result error of %s is discarded; a dropped ALG/DFS write error means silently lost recovery state", calleeName(pass, call))
			}
		case *ast.AssignStmt:
			checkAssign(pass, s, stmts[i+1:])
		}
	}
}

// checkAssign flags protected-call errors assigned to `_` or to an err
// variable that is never read before being overwritten or going out of
// scope.
func checkAssign(pass *analysis.Pass, a *ast.AssignStmt, rest []ast.Stmt) {
	// Only the form  x, err := protected(...)  (single call RHS).
	if len(a.Rhs) != 1 {
		return
	}
	call, ok := a.Rhs[0].(*ast.CallExpr)
	if !ok || !protectedCall(pass, call) {
		return
	}
	errIdx := len(a.Lhs) - 1
	id, ok := a.Lhs[errIdx].(*ast.Ident)
	if !ok {
		return
	}
	if id.Name == "_" {
		pass.Reportf(id.Pos(), "error from %s assigned to _; handle it or annotate with //almvet:allow droppederr", calleeName(pass, call))
		return
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id] // plain `=` assignment
	}
	if obj == nil || !isErrorType(obj.Type()) {
		return
	}
	switch readBeforeClobber(pass, obj, rest) {
	case readSeen:
	case clobbered:
		pass.Reportf(id.Pos(), "error from %s is overwritten before being read (shadowed/unchecked)", calleeName(pass, call))
	case neverRead:
		pass.Reportf(id.Pos(), "error from %s is never read", calleeName(pass, call))
	}
}

type readState int

const (
	readSeen readState = iota
	clobbered
	neverRead
)

// readBeforeClobber scans the statements following the assignment, in
// order, for the first read or write of obj. The scan is linear over the
// sibling statements and descends into each one; a read anywhere inside a
// following statement (conditions, nested blocks, deferred closures)
// counts.
func readBeforeClobber(pass *analysis.Pass, obj types.Object, rest []ast.Stmt) readState {
	for _, s := range rest {
		read, wrote := false, false
		ast.Inspect(s, func(n ast.Node) bool {
			if read {
				return false
			}
			// A bare return implicitly reads every named result.
			if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) == 0 {
				read = true
				return false
			}
			if as, ok := n.(*ast.AssignStmt); ok {
				// Visit RHS first (it is evaluated first).
				for _, r := range as.Rhs {
					ast.Inspect(r, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
							read = true
						}
						return !read
					})
				}
				if read {
					return false
				}
				for _, l := range as.Lhs {
					if id, ok := l.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
						wrote = true
					}
				}
				return false
			}
			if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				read = true
			}
			return true
		})
		if read {
			return readSeen
		}
		if wrote {
			return clobbered
		}
	}
	return neverRead
}

// checkCallbackArgs flags `func(error)` literals passed to protected
// functions when the literal ignores its error parameter: the callback is
// the only place the asynchronous write failure will ever surface.
func checkCallbackArgs(pass *analysis.Pass, call *ast.CallExpr) {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !ProtectedPkgs[fn.Pkg().Path()] {
		return
	}
	for _, arg := range call.Args {
		lit, ok := arg.(*ast.FuncLit)
		if !ok {
			continue
		}
		for _, field := range lit.Type.Params.List {
			t := pass.TypesInfo.Types[field.Type].Type
			if t == nil || !isErrorType(t) {
				continue
			}
			if len(field.Names) == 0 {
				pass.Reportf(lit.Pos(), "callback passed to %s discards its error parameter; name and check it (silent ALG write loss)", calleeName(pass, call))
				continue
			}
			for _, name := range field.Names {
				if name.Name == "_" {
					pass.Reportf(name.Pos(), "callback passed to %s discards its error parameter; name and check it (silent ALG write loss)", calleeName(pass, call))
					continue
				}
				def := pass.TypesInfo.Defs[name]
				if def != nil && !identUsed(pass, lit.Body, def) {
					pass.Reportf(name.Pos(), "callback passed to %s never reads error parameter %q (silent ALG write loss)", calleeName(pass, call), name.Name)
				}
			}
		}
	}
}

func identUsed(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}

func calleeName(pass *analysis.Pass, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if obj := pass.TypesInfo.Uses[fun.Sel]; obj != nil {
			if fn, ok := obj.(*types.Func); ok {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return "(" + sig.Recv().Type().String() + ")." + fn.Name()
				}
				return fn.Pkg().Name() + "." + fn.Name()
			}
		}
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return "call"
}

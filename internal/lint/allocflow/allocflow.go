// Package allocflow implements the `allocflow` analyzer: flow-sensitive
// allocation checks on the //alm:hotpath functions whose budgets
// internal/perf declares and `make bench-alloc` enforces. It upgrades
// hotalloc's call blacklisting (fmt.Sprint family, string
// concatenation) with the allocation patterns only control flow can
// see:
//
//   - append in a loop to a slice declared outside the loop without
//     preallocated capacity — the growth reallocations land on every
//     iteration of the hot path. When the loop ranges over a value with
//     a length, the suggested fix rewrites the declaration to
//     `make([]T, 0, len(src))`.
//   - a function literal inside a loop that captures variables — one
//     closure allocation per iteration;
//   - interface boxing inside a loop — a concrete non-pointer value
//     converted to an interface (explicitly, by assignment, or by being
//     passed to an interface-typed parameter) allocates per iteration.
//
// "Inside a loop" is decided on the control-flow graph, not the syntax:
// a statement is in a loop iff its CFG block can reach itself, which
// also covers goto-formed cycles and excludes straight-line switch arms.
//
// The //alm:hotpath marker is propagated interprocedurally within the
// package: a function statically called from a marked function is hot
// too, and its diagnostics name the marked root so the reader can trace
// why the budget applies. (Cross-package propagation would need analysis
// facts, which the vettool protocol of this in-tree framework does not
// carry; marking the callee package's entry points directly keeps the
// contract visible at the declaration anyway.)
package allocflow

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"alm/internal/lint/analysis"
	"alm/internal/lint/cfg"
)

// Analyzer is the allocflow analysis.
var Analyzer = &analysis.Analyzer{
	Name: "allocflow",
	Doc: "flow-sensitive allocation checks in //alm:hotpath functions (propagated to " +
		"same-package callees): append-in-loop without preallocation, per-iteration " +
		"closures, and interface boxing inside loops",
	Run: run,
}

func run(pass *analysis.Pass) error {
	hot := hotFunctions(pass)
	for _, h := range hot {
		checkHotFunc(pass, h)
	}
	return nil
}

// hotFunc is one function the budget applies to.
type hotFunc struct {
	decl *ast.FuncDecl
	// root is the marked function this one is reached from; "" when decl
	// itself carries the marker.
	root string
}

// hotFunctions returns marked functions plus their same-package static
// callees, in deterministic source order.
func hotFunctions(pass *analysis.Pass) []hotFunc {
	type fn struct {
		obj  types.Object
		decl *ast.FuncDecl
	}
	var fns []fn
	byObj := map[types.Object]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			fns = append(fns, fn{obj, fd})
			byObj[obj] = fd
		}
	}

	// BFS from the marked roots across same-package static calls.
	rootOf := map[types.Object]string{}
	var frontier []types.Object
	for _, f := range fns {
		if hasHotpathMarker(f.decl.Doc) {
			rootOf[f.obj] = ""
			frontier = append(frontier, f.obj)
		}
	}
	for len(frontier) > 0 {
		obj := frontier[0]
		frontier = frontier[1:]
		rootName := rootOf[obj]
		if rootName == "" {
			rootName = obj.Name()
		}
		ast.Inspect(byObj[obj].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeObject(pass, call)
			if callee == nil || byObj[callee] == nil {
				return true
			}
			if _, seen := rootOf[callee]; !seen {
				rootOf[callee] = rootName
				frontier = append(frontier, callee)
			}
			return true
		})
	}

	var out []hotFunc
	for _, f := range fns {
		if root, ok := rootOf[f.obj]; ok {
			out = append(out, hotFunc{decl: f.decl, root: root})
		}
	}
	return out
}

func checkHotFunc(pass *analysis.Pass, h hotFunc) {
	g := cfg.New(h.decl.Body)
	inLoop := cyclicBlocks(g)
	suffix := ""
	if h.root != "" {
		suffix = " (hot path via //alm:hotpath " + h.root + ")"
	}

	for _, blk := range g.Blocks {
		if !inLoop[blk] {
			continue
		}
		for _, node := range blk.Nodes {
			checkLoopNode(pass, h, g, node, suffix)
		}
	}
}

// cyclicBlocks returns the blocks that lie on a CFG cycle (can reach
// themselves) — the flow-sensitive definition of "inside a loop".
func cyclicBlocks(g *cfg.Graph) map[*cfg.Block]bool {
	out := make(map[*cfg.Block]bool, len(g.Blocks))
	reach := g.Reachable()
	for _, blk := range g.Blocks {
		if !reach[blk] {
			continue
		}
		seen := map[*cfg.Block]bool{}
		work := append([]*cfg.Block(nil), blk.Succs...)
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			if b == blk {
				out[blk] = true
				break
			}
			if seen[b] {
				continue
			}
			seen[b] = true
			work = append(work, b.Succs...)
		}
	}
	return out
}

// checkLoopNode scans one in-loop CFG node for the three patterns.
func checkLoopNode(pass *analysis.Pass, h hotFunc, g *cfg.Graph, node ast.Node, suffix string) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// Only the operand belongs to this CFG node, and it evaluates
			// once per loop entry, not per iteration; the body's statements
			// live in their own (also cyclic) blocks and are scanned there —
			// descending here would double-report them.
			return false
		case *ast.FuncLit:
			if caps := capturedVars(pass, n); len(caps) > 0 {
				pass.Reportf(n.Pos(), "closure capturing %s allocates on every loop iteration%s; hoist it out of the loop or pass state through a reused struct",
					strings.Join(caps, ", "), suffix)
			}
			return false // the literal's body runs elsewhere
		case *ast.AssignStmt:
			checkAppend(pass, h, g, n, suffix)
			checkBoxedAssign(pass, n, suffix)
			return true
		case *ast.CallExpr:
			checkBoxedArgs(pass, n, suffix)
			return true
		}
		return true
	})
}

// ---- append-in-loop without preallocation ----

func checkAppend(pass *analysis.Pass, h hotFunc, g *cfg.Graph, a *ast.AssignStmt, suffix string) {
	if a.Tok != token.ASSIGN || len(a.Lhs) != 1 || len(a.Rhs) != 1 {
		return
	}
	lhs, ok := a.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	call, ok := a.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return
	}
	if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return
	}
	obj := pass.TypesInfo.Uses[lhs]
	if obj == nil {
		return
	}
	decl := findLocalDecl(pass, h.decl.Body, obj)
	if decl == nil {
		return // parameter, field, or package-level: preallocation is the caller's call
	}
	declStmt, zeroCap := declWithoutCapacity(pass, decl, obj)
	if !zeroCap {
		return
	}
	if nodeInCycle(g, declStmt) {
		return // declared inside the loop: fresh slice per iteration, different problem
	}
	d := analysis.Diagnostic{
		Pos: a.Pos(),
		Message: "append to " + lhs.Name + " in a loop without preallocated capacity" + suffix +
			"; size it with make(..., 0, n) before the loop",
	}
	if fix, ok := preallocFix(pass, h, a, declStmt, obj); ok {
		d.SuggestedFixes = append(d.SuggestedFixes, fix)
	}
	pass.Report(d)
}

// findLocalDecl locates the statement declaring obj inside body, or nil.
func findLocalDecl(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) ast.Stmt {
	var found ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for _, l := range n.Lhs {
				if id, ok := l.(*ast.Ident); ok && pass.TypesInfo.Defs[id] == obj {
					found = n
					return false
				}
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if pass.TypesInfo.Defs[name] == obj {
						found = n
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

// declWithoutCapacity reports whether the declaration leaves the slice
// with zero capacity: `var s []T`, `s := []T{}`, `s := []T(nil)`, or
// `s := make([]T, 0)`.
func declWithoutCapacity(pass *analysis.Pass, decl ast.Stmt, obj types.Object) (ast.Stmt, bool) {
	switch d := decl.(type) {
	case *ast.DeclStmt:
		gd := d.Decl.(*ast.GenDecl)
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if pass.TypesInfo.Defs[name] != obj {
					continue
				}
				if len(vs.Values) == 0 {
					return d, true // var s []T
				}
				if i < len(vs.Values) {
					return d, zeroCapExpr(pass, vs.Values[i])
				}
			}
		}
	case *ast.AssignStmt:
		for i, l := range d.Lhs {
			if id, ok := l.(*ast.Ident); ok && pass.TypesInfo.Defs[id] == obj && i < len(d.Rhs) {
				return d, zeroCapExpr(pass, d.Rhs[i])
			}
		}
	}
	return decl, false
}

// zeroCapExpr reports whether e evaluates to a zero-capacity slice.
func zeroCapExpr(pass *analysis.Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return len(e.Elts) == 0 // []T{}
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
				if len(e.Args) == 3 {
					return false // explicit capacity
				}
				if len(e.Args) == 2 {
					// make([]T, n): preallocated iff n is non-zero.
					if tv, ok := pass.TypesInfo.Types[e.Args[1]]; ok && tv.Value != nil {
						return tv.Value.String() == "0"
					}
					return false
				}
			}
		}
	}
	return false
}

// preallocFix rewrites the declaration to make([]T, 0, len(src)) when
// the enclosing loop is a range over something with a length.
func preallocFix(pass *analysis.Pass, h hotFunc, a *ast.AssignStmt, declStmt ast.Stmt, obj types.Object) (analysis.SuggestedFix, bool) {
	none := analysis.SuggestedFix{}
	rs := enclosingRange(h.decl.Body, a)
	if rs == nil || containsCall(rs.X) {
		return none, false
	}
	if !hasLen(pass.TypesInfo.Types[rs.X].Type) {
		return none, false
	}
	src, ok := exprSource(pass, rs.X)
	if !ok {
		return none, false
	}
	slice, ok := obj.Type().Underlying().(*types.Slice)
	if !ok {
		return none, false
	}
	elem := types.TypeString(slice.Elem(), typeQualifier(pass))
	if strings.ContainsAny(elem, "/") {
		return none, false // unexported or cross-package path leaked in
	}
	newText := obj.Name() + " := make([]" + elem + ", 0, len(" + src + "))"
	return analysis.SuggestedFix{
		Message: "preallocate with make([]" + elem + ", 0, len(" + src + "))",
		TextEdits: []analysis.TextEdit{{
			Pos:     declStmt.Pos(),
			End:     declStmt.End(),
			NewText: []byte(newText),
		}},
	}, true
}

// enclosingRange returns the innermost RangeStmt of body that contains n.
func enclosingRange(body *ast.BlockStmt, n ast.Node) *ast.RangeStmt {
	var best *ast.RangeStmt
	ast.Inspect(body, func(m ast.Node) bool {
		if rs, ok := m.(*ast.RangeStmt); ok {
			if rs.Body.Pos() <= n.Pos() && n.End() <= rs.Body.End() {
				best = rs
			}
		}
		return true
	})
	return best
}

func hasLen(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Array, *types.Map, *types.Chan:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Info()&types.IsString != 0
	}
	return false
}

// nodeInCycle reports whether the block holding stmt lies on a cycle.
func nodeInCycle(g *cfg.Graph, stmt ast.Stmt) bool {
	if stmt == nil {
		return false
	}
	cyc := cyclicBlocks(g)
	for blk := range cyc {
		for _, n := range blk.Nodes {
			if n == ast.Node(stmt) {
				return true
			}
		}
	}
	return false
}

// ---- closures ----

// capturedVars lists function-local variables the literal captures from
// its enclosing function, in first-use order.
func capturedVars(pass *analysis.Pass, lit *ast.FuncLit) []string {
	var out []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || obj.IsField() || seen[obj] {
			return true
		}
		if obj.Parent() == nil || obj.Parent() == obj.Pkg().Scope() {
			return true // package-level: no capture
		}
		// Declared outside the literal?
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			seen[obj] = true
			out = append(out, obj.Name())
		}
		return true
	})
	return out
}

// ---- interface boxing ----

func checkBoxedAssign(pass *analysis.Pass, a *ast.AssignStmt, suffix string) {
	if len(a.Lhs) != len(a.Rhs) {
		return
	}
	for i, l := range a.Lhs {
		lt := pass.TypesInfo.Types[l].Type
		if lt == nil && a.Tok == token.DEFINE {
			if id, ok := l.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					lt = obj.Type()
				}
			}
		}
		reportBoxing(pass, a.Rhs[i], lt, suffix)
	}
}

func checkBoxedArgs(pass *analysis.Pass, call *ast.CallExpr, suffix string) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	if tv.IsType() {
		// Conversion T(x): boxing iff T is an interface.
		if len(call.Args) == 1 {
			reportBoxing(pass, call.Args[0], tv.Type, suffix)
		}
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through, no per-element boxing
			}
			pt = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		case i < sig.Params().Len():
			pt = sig.Params().At(i).Type()
		}
		reportBoxing(pass, arg, pt, suffix)
	}
}

// reportBoxing flags src flowing into an interface-typed destination when
// its static type is a concrete non-pointer (the conversion allocates).
func reportBoxing(pass *analysis.Pass, src ast.Expr, dst types.Type, suffix string) {
	if dst == nil {
		return
	}
	iface, ok := dst.Underlying().(*types.Interface)
	if !ok {
		return
	}
	tv, ok := pass.TypesInfo.Types[src]
	if !ok || tv.Type == nil || tv.Value != nil {
		return // constants are folded (and small ones interned)
	}
	st := tv.Type
	if types.IsInterface(st) {
		return // already boxed
	}
	if _, isPtr := st.Underlying().(*types.Pointer); isPtr {
		return // pointers fit the interface word: no allocation
	}
	if b, ok := st.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	_ = iface
	pass.Reportf(src.Pos(), "%s value boxed into an interface inside a loop%s; keep the concrete type or hoist the conversion",
		types.TypeString(st, typeQualifier(pass)), suffix)
}

// ---- shared helpers ----

func hasHotpathMarker(doc *ast.CommentGroup) bool {
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

func calleeObject(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return obj
		}
	case *ast.SelectorExpr:
		if obj, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return obj
		}
	}
	return nil
}

func typeQualifier(pass *analysis.Pass) types.Qualifier {
	return func(p *types.Package) string {
		if p == pass.Pkg {
			return ""
		}
		return p.Name()
	}
}

func exprSource(pass *analysis.Pass, e ast.Expr) (string, bool) {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, pass.Fset, e); err != nil {
		return "", false
	}
	return buf.String(), true
}

func containsCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

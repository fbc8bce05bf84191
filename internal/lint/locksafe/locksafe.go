// Package locksafe implements the `locksafe` analyzer, two related
// checks for the experiment fan-out and any future concurrent subsystem:
//
//  1. lock copies — assigning, passing, ranging over, or declaring value
//     receivers of types that (transitively) contain a sync.Mutex or
//     other Lock/Unlock carrier. A copied mutex guards nothing.
//  2. guarded fields — a struct field whose comment says `// guarded by
//     mu` may only be touched from functions that actually interact with
//     that mutex (call Lock/RLock on it somewhere in the same function).
//
// The declaration-comment convention makes the locking contract machine-
// checkable: when the ROADMAP scaling work adds sharded or async stages,
// a new goroutine reading experiment results without the collector lock
// becomes a vet failure instead of a once-a-month flaky figure.
package locksafe

import (
	"go/ast"
	"go/types"
	"regexp"

	"alm/internal/lint/analysis"
)

// Analyzer is the locksafe analysis.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc: "flag copies of lock-bearing values and accesses to `// guarded by mu` " +
		"fields from functions that never touch that mutex",
	Run: run,
}

var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

func run(pass *analysis.Pass) error {
	guards := collectGuardedFields(pass)
	for _, file := range pass.Files {
		checkCopies(pass, file)
		checkGuardedAccess(pass, file, guards)
	}
	return nil
}

// ---- check 1: lock copies ----

// containsLock reports whether a value of type t embeds a lock. A lock is
// any type whose pointer method set has Lock and Unlock methods (the
// convention vet's copylocks uses), or a struct/array containing one.
func containsLock(t types.Type) bool {
	return lockPath(t, 0)
}

func lockPath(t types.Type, depth int) bool {
	if depth > 10 {
		return false
	}
	if hasLockMethods(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if lockPath(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return lockPath(u.Elem(), depth+1)
	}
	return false
}

func hasLockMethods(t types.Type) bool {
	if _, ok := t.Underlying().(*types.Interface); ok {
		return false
	}
	if _, ok := t.Underlying().(*types.Pointer); ok {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	return lookupNullary(ms, "Lock") && lookupNullary(ms, "Unlock")
}

func lookupNullary(ms *types.MethodSet, name string) bool {
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i)
		if m.Obj().Name() != name {
			continue
		}
		sig, ok := m.Obj().Type().(*types.Signature)
		if ok && sig.Params().Len() == 0 && sig.Results().Len() == 0 {
			return true
		}
	}
	return false
}

// exprType resolves an expression's type, falling back to the defined
// object for idents introduced by the expression itself (range variables
// are definitions, which types.Info.Types does not record).
func exprType(pass *analysis.Pass, e ast.Expr) types.Type {
	if t := pass.TypesInfo.Types[e].Type; t != nil {
		return t
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// addressableRead reports whether e reads an existing variable (as
// opposed to constructing a fresh value, which is a legal way to
// initialize a lock-bearing struct).
func addressableRead(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return true
	case *ast.ParenExpr:
		return addressableRead(e.X)
	}
	return false
}

func checkCopies(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil && len(n.Recv.List) == 1 {
				rt := pass.TypesInfo.Types[n.Recv.List[0].Type].Type
				if rt != nil {
					if _, isPtr := rt.(*types.Pointer); !isPtr && containsLock(rt) {
						pass.Reportf(n.Recv.List[0].Type.Pos(), "method %s has a value receiver of lock-bearing type %s; use a pointer receiver", n.Name.Name, rt)
					}
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if !addressableRead(rhs) {
					continue
				}
				t := pass.TypesInfo.Types[rhs].Type
				if t == nil {
					continue
				}
				if _, isPtr := t.(*types.Pointer); isPtr {
					continue
				}
				if containsLock(t) {
					pass.Reportf(n.Pos(), "assignment copies lock-bearing value of type %s", t)
				}
			}
		case *ast.RangeStmt:
			if n.Value != nil {
				t := exprType(pass, n.Value)
				if t != nil && containsLock(t) {
					pass.Reportf(n.Value.Pos(), "range value copies lock-bearing value of type %s; iterate by index or over pointers", t)
				}
			}
		case *ast.CallExpr:
			checkCallCopies(pass, n)
		}
		return true
	})
}

func checkCallCopies(pass *analysis.Pass, call *ast.CallExpr) {
	// Conversions and builtins (len, cap, new) do not copy semantically
	// in a way that matters here; restrict to real function calls.
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
			return
		}
		if _, isType := pass.TypesInfo.Uses[fun].(*types.TypeName); isType {
			return
		}
	case *ast.SelectorExpr:
		if _, isType := pass.TypesInfo.Uses[fun.Sel].(*types.TypeName); isType {
			return
		}
	}
	for _, arg := range call.Args {
		if !addressableRead(arg) {
			continue
		}
		t := pass.TypesInfo.Types[arg].Type
		if t == nil {
			continue
		}
		if _, isPtr := t.(*types.Pointer); isPtr {
			continue
		}
		if containsLock(t) {
			pass.Reportf(arg.Pos(), "call copies lock-bearing value of type %s; pass a pointer", t)
		}
	}
}

// ---- check 2: guarded field discipline ----

// guardedField records one `// guarded by mu` declaration.
type guardedField struct {
	field types.Object // the *types.Var of the struct field
	mutex string       // declared guard name, e.g. "mu"
}

// collectGuardedFields finds struct fields annotated with a guard
// declaration in their doc or trailing line comment.
func collectGuardedFields(pass *analysis.Pass) []guardedField {
	var out []guardedField
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				var texts []string
				if field.Doc != nil {
					texts = append(texts, field.Doc.Text())
				}
				if field.Comment != nil {
					texts = append(texts, field.Comment.Text())
				}
				var mu string
				for _, txt := range texts {
					if m := guardedRe.FindStringSubmatch(txt); m != nil {
						mu = m[1]
					}
				}
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						out = append(out, guardedField{field: obj, mutex: mu})
					}
				}
			}
			return true
		})
	}
	return out
}

// checkGuardedAccess flags selector accesses to guarded fields from
// functions that never Lock/RLock the declared mutex. The check is
// deliberately function-granular (not flow-sensitive): a function that
// takes the lock anywhere is trusted to have its critical sections right;
// a function that never mentions the mutex cannot possibly be holding it.
func checkGuardedAccess(pass *analysis.Pass, file *ast.File, guards []guardedField) {
	if len(guards) == 0 {
		return
	}
	byObj := make(map[types.Object]string, len(guards))
	for _, g := range guards {
		byObj[g.field] = g.mutex
	}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		locked := mutexesTouched(pass, fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil {
				return true
			}
			mu, guarded := byObj[obj]
			if !guarded || locked[mu] {
				return true
			}
			pass.Reportf(sel.Sel.Pos(), "access to field %q (guarded by %s) in a function that never locks %s", obj.Name(), mu, mu)
			return true
		})
	}
}

// mutexesTouched returns the names of mutexes the function body calls
// Lock/RLock/TryLock/TryRLock on (directly or via defer).
func mutexesTouched(pass *analysis.Pass, body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock", "TryLock", "TryRLock":
		default:
			return true
		}
		// The mutex name is the final selector component of the receiver
		// expression: c.mu.Lock() -> "mu", mu.Lock() -> "mu".
		switch recv := sel.X.(type) {
		case *ast.Ident:
			out[recv.Name] = true
		case *ast.SelectorExpr:
			out[recv.Sel.Name] = true
		}
		return true
	})
	return out
}

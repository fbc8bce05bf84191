// Package seedflow implements the `seedflow` analyzer: every
// rand.NewSource seed, and every reseed through a Seed method, must flow
// from a Seed/config parameter.
//
// The experiment harness threads Options.Seed through JobSpec.Seed into
// sim.NewEngine and the per-split generators (Workload.MapOutput derives
// `spec.Seed*1_000_003 + splitIdx`). A literal seed hidden in a leaf
// function silently decouples that leaf from the harness — two runs with
// different --seed flags would still agree in that leaf, masking
// seed-sensitivity bugs; a time-derived seed destroys reproducibility
// outright. A generator reused across streams and reseeded through
// (*rand.Rand).Seed is a seed like any other. seedflow requires each seed
// expression to (a) not consult the clock and (b) reference at least one
// seed-ish identifier (name containing "seed") so the provenance is
// visible at the call site.
package seedflow

import (
	"go/ast"
	"go/types"
	"strings"

	"alm/internal/lint/analysis"
)

// Analyzer is the seedflow analysis.
var Analyzer = &analysis.Analyzer{
	Name: "seedflow",
	Doc: "require rand.NewSource and (*rand.Rand).Seed seeds to derive from a " +
		"Seed/config parameter, not literals or wall-clock time",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isSeeding(pass, call) || len(call.Args) == 0 {
				return true
			}
			checkSeedExpr(pass, call.Args[0])
			return true
		})
	}
	return nil
}

// isSeeding reports whether call seeds a math/rand generator: a source
// constructor, or a Seed method such as (*rand.Rand).Seed.
func isSeeding(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
		return false
	}
	switch fn.Name() {
	case "NewSource", "NewPCG", "NewChaCha8":
		return true
	case "Seed":
		return fn.Type().(*types.Signature).Recv() != nil
	}
	return false
}

// checkSeedExpr validates one seed argument expression.
func checkSeedExpr(pass *analysis.Pass, e ast.Expr) {
	timeDerived := false
	var named []string
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if obj := pass.TypesInfo.Uses[n.Sel]; obj != nil && obj.Pkg() != nil {
				if obj.Pkg().Path() == "time" && (obj.Name() == "Now" || obj.Name() == "Since") {
					timeDerived = true
				}
			}
			// Record the field/method name (e.g. spec.Seed -> "Seed") and
			// do not descend into the base expression's identifier, which
			// would double-count.
			named = append(named, n.Sel.Name)
			if base, ok := n.X.(*ast.Ident); ok {
				named = append(named, base.Name)
				return false
			}
			return true
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[n]; obj != nil {
				if _, isVar := obj.(*types.Var); isVar {
					named = append(named, n.Name)
				}
				if _, isConst := obj.(*types.Const); isConst {
					named = append(named, n.Name)
				}
			}
		}
		return true
	})
	if timeDerived {
		pass.Reportf(e.Pos(), "seed derived from wall-clock time; derive it from the run's Seed parameter")
		return
	}
	for _, name := range named {
		if strings.Contains(strings.ToLower(name), "seed") {
			return
		}
	}
	if len(named) == 0 {
		pass.Reportf(e.Pos(), "literal-only seed; thread the run's Seed/config parameter through instead")
		return
	}
	pass.Reportf(e.Pos(), "seed does not reference any Seed-named parameter (saw %s); derive it from the run's Seed so provenance is auditable", strings.Join(named, ", "))
}

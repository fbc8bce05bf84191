// Package registry enumerates the almvet analyzer suite and the package
// scope each analyzer applies to. Scoping is a driver policy, not an
// analyzer property: the analyzers check whatever package they are handed
// (which is what analysistest exploits), while almvet consults AppliesTo
// before spending work on a package.
package registry

import (
	"strings"

	"alm/internal/lint/analysis"
	"alm/internal/lint/detnow"
	"alm/internal/lint/droppederr"
	"alm/internal/lint/locksafe"
	"alm/internal/lint/seedflow"
)

// Scoped pairs an analyzer with its package-path predicate.
type Scoped struct {
	*analysis.Analyzer
	AppliesTo func(pkgPath string) bool
}

// ModulePath is the module this suite polices.
const ModulePath = "alm"

// detnowScope lists the deterministic-simulation packages. cmd/ is
// included so that wall-clock use there is visible and must carry an
// explicit //almvet:allow detnow justification.
var detnowScope = []string{
	ModulePath + "/internal/sim",
	ModulePath + "/internal/engine",
	ModulePath + "/internal/merge",
	ModulePath + "/internal/experiments",
	ModulePath + "/internal/chaos",
	ModulePath + "/internal/metrics",
	ModulePath + "/cmd",
}

// All returns the suite in stable order.
func All() []Scoped {
	return []Scoped{
		{Analyzer: detnow.Analyzer, AppliesTo: underAny(detnowScope)},
		{Analyzer: droppederr.Analyzer, AppliesTo: inModule},
		{Analyzer: locksafe.Analyzer, AppliesTo: inModule},
		{Analyzer: seedflow.Analyzer, AppliesTo: inModule},
	}
}

// Analyzers returns the bare analyzers (for analysistest and docs).
func Analyzers() []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, s := range All() {
		out = append(out, s.Analyzer)
	}
	return out
}

// inModule reports whether pkgPath belongs to this module.
func inModule(pkgPath string) bool {
	return pkgPath == ModulePath || strings.HasPrefix(pkgPath, ModulePath+"/")
}

func underAny(prefixes []string) func(string) bool {
	return func(pkgPath string) bool {
		for _, p := range prefixes {
			if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
				return true
			}
		}
		return false
	}
}

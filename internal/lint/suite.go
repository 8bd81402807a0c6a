package lint

// DefaultAnalyzers returns the repository's configured analyzer suite for
// the module with the given root import path (e.g. "compact"):
//
//	floatcmp      exact float ==/!= anywhere in the module
//	panicfree     panics reachable from the façade API or a cmd/* main
//	errdrop       silently discarded error returns
//	mutableglobal package-level state written at runtime
//	ctxbound      solver entry points without a resource bound
//	allocbound    wire-decoded sizes must be bounds-checked before make
//	ctxflow       no context.Background()/TODO() on paths into solvers
//	gospawn       goroutines must be lifecycle-tied
//	staleignore   //lint:ignore directives must still suppress something
//
// The last four run on compactflow, the interprocedural dataflow layer in
// flow.go.
func DefaultAnalyzers(modPath string) []*Analyzer {
	solverPkgs := []string{
		modPath + "/internal/ilp",
		modPath + "/internal/graph",
		modPath + "/internal/oct",
		modPath + "/internal/labeling",
		modPath + "/internal/bdd",
		modPath + "/internal/xbar",
		modPath + "/internal/spice",
	}
	wirePkgs := []string{
		modPath + "/internal/xbar",
		modPath + "/internal/defect",
		modPath + "/internal/partition",
		modPath + "/internal/server",
	}
	parsePkgs := []string{
		modPath + "/internal/pla",
	}
	return []*Analyzer{
		Floatcmp(),
		Panicfree(modPath, modPath+"/cmd/*"),
		Errdrop(),
		Mutableglobal(),
		Ctxbound(solverPkgs),
		Allocbound(modPath, wirePkgs, parsePkgs),
		Ctxflow([]string{modPath + "/internal/"}, solverPkgs),
		Gospawn(),
		Staleignore(),
	}
}

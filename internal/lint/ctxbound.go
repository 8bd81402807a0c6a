package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Ctxbound checks that exported solver entry points carry an explicit
// resource bound, the pattern xbar.FormalVerify(..., nodeLimit) and
// ilp.SolveContext(ctx, ..., Options{TimeLimit}) already follow. COMPACT's exact
// solvers (vertex cover, branch & bound, BDD construction) are worst-case
// exponential; an entry point without a node/iteration/time budget is an
// unbounded computation handed to whoever wires the package into a service.
//
// A function is considered a solver entry point when it is exported, lives
// in one of the configured packages, and its name starts with one of:
// Solve, Find, Build, Search, Sift, Formal, Min, Max. It satisfies the rule
// when its signature carries any of:
//
//   - a context.Context, time.Duration or time.Time parameter (aliases of
//     these count too — the context-accepting SolveContext/FindContext
//     entry points satisfy the rule this way, since the caller's ctx
//     carries the deadline),
//   - an integer parameter whose name contains limit/budget/max, or
//   - a (pointer-to-)struct parameter with an exported field whose name
//     contains Limit, Budget or Deadline, or whose type is one of the
//     bound types above (e.g. Ctx context.Context).
//
// Polynomial-time entry points that genuinely need no budget are suppressed
// in place with //lint:ignore ctxbound <reason>.
func Ctxbound(pkgPaths []string) *Analyzer {
	scope := make(map[string]bool, len(pkgPaths))
	for _, p := range pkgPaths {
		scope[p] = true
	}
	return &Analyzer{
		Name: "ctxbound",
		Doc:  "flags exported solver entry points without a node/iteration/time bound",
		Run: func(pass *Pass) {
			if !scope[pass.Pkg.Path] {
				return
			}
			runCtxbound(pass)
		},
	}
}

var solverPrefixes = []string{"Solve", "Find", "Build", "Search", "Sift", "Formal", "Min", "Max"}

func runCtxbound(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || !hasSolverPrefix(fd.Name.Name) {
				continue
			}
			obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Type().(*types.Signature)
			if signatureHasBound(sig) {
				continue
			}
			pass.Reportf(fd.Name.Pos(), "exported solver entry point %s has no node/iteration/time bound in its signature", fd.Name.Name)
		}
	}
}

func hasSolverPrefix(name string) bool {
	for _, p := range solverPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// signatureHasBound reports whether any parameter provides a resource
// bound per the ctxbound rule.
func signatureHasBound(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		p := params.At(i)
		if typeIsBound(p.Type()) {
			return true
		}
		if isBoundName(p.Name()) {
			if b, ok := p.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				return true
			}
		}
		if st := structUnder(p.Type()); st != nil {
			for j := 0; j < st.NumFields(); j++ {
				fld := st.Field(j)
				if isBoundFieldName(fld.Name()) || typeIsBound(fld.Type()) {
					return true
				}
			}
		}
	}
	return false
}

// typeIsBound recognizes context.Context, time.Duration and time.Time,
// seeing through type aliases (`type Deadline = time.Time` etc.).
func typeIsBound(t types.Type) bool {
	switch tt := types.Unalias(t).(type) {
	case *types.Named:
		obj := tt.Obj()
		if obj.Pkg() == nil {
			return false
		}
		switch obj.Pkg().Path() {
		case "time":
			return obj.Name() == "Duration" || obj.Name() == "Time"
		case "context":
			return obj.Name() == "Context"
		}
	case *types.Interface:
		// A bare interface parameter named ctx is not a recognized bound.
	}
	return false
}

func isBoundName(name string) bool {
	n := strings.ToLower(name)
	return strings.Contains(n, "limit") || strings.Contains(n, "budget") || strings.Contains(n, "max")
}

func isBoundFieldName(name string) bool {
	return strings.Contains(name, "Limit") || strings.Contains(name, "Budget") || strings.Contains(name, "Deadline")
}

// structUnder unwraps aliases, pointers and named types down to a struct,
// or nil.
func structUnder(t types.Type) *types.Struct {
	t = types.Unalias(t)
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

package lint

import (
	"bufio"
	"fmt"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// flowmodCache loads the synthetic testdata/flowmod module once per test
// binary: LoadModule type-checks the standard library from source, which
// is the expensive part, and the Program is read-only for every consumer.
var flowmodCache struct {
	once sync.Once
	prog *Program
	err  error
}

func loadFlowmod(t *testing.T) *Program {
	t.Helper()
	flowmodCache.once.Do(func() {
		flowmodCache.prog, flowmodCache.err = LoadModule(filepath.Join("testdata", "flowmod"))
	})
	if flowmodCache.err != nil {
		t.Fatalf("LoadModule(flowmod): %v", flowmodCache.err)
	}
	return flowmodCache.prog
}

// flowmodAnalyzers is the suite the marker test runs: the four ISSUE-6
// analyzers configured for the synthetic module.
func flowmodAnalyzers() []*Analyzer {
	return []*Analyzer{
		Allocbound("flowmod", []string{"flowmod/wire", "flowmod/regress"}, []string{"flowmod/wire"}),
		Ctxflow([]string{"flowmod/lib"}, []string{"flowmod/solver"}),
		Gospawn(),
		Staleignore(),
	}
}

// moduleWantSet recursively collects "// want <analyzer>" markers under
// root, keyed "basename:analyzer:line" (basenames are unique across the
// fixture module).
func moduleWantSet(t *testing.T, root string) map[string]bool {
	t.Helper()
	want := make(map[string]bool)
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".go") {
			return err
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			i := strings.Index(text, "// want ")
			if i < 0 {
				continue
			}
			for _, an := range strings.Fields(text[i+len("// want "):]) {
				want[fmt.Sprintf("%s:%s:%d", d.Name(), an, line)] = true
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFlowmodMarkers runs the four dataflow analyzers over the synthetic
// module and compares every diagnostic against the // want markers:
// missing findings and false positives both fail.
func TestFlowmodMarkers(t *testing.T) {
	prog := loadFlowmod(t)
	diags := RunAnalyzers(prog, flowmodAnalyzers())
	want := moduleWantSet(t, filepath.Join("testdata", "flowmod"))
	got := make(map[string]bool)
	for _, d := range diags {
		got[fmt.Sprintf("%s:%s:%d", filepath.Base(d.Pos.Filename), d.Analyzer, d.Pos.Line)] = true
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing expected finding %s", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("unexpected finding %s", k)
		}
	}
}

// TestFlowmodRegressions pins the historical OOM decoders: the pre-fix
// copies in regress/ must each be flagged by allocbound (the third entry
// is the layered-decoder shape of the same class, guarded in
// xbar's design constructor, next to each plane allocation).
func TestFlowmodRegressions(t *testing.T) {
	prog := loadFlowmod(t)
	diags := RunAnalyzers(prog, flowmodAnalyzers())
	for _, file := range []string{"regress_defect.go", "regress_tile.go", "regress_design3d.go"} {
		found := false
		for _, d := range diags {
			if filepath.Base(d.Pos.Filename) == file && d.Analyzer == "allocbound" {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: historical OOM decoder no longer flagged by allocbound", file)
		}
	}
}

// TestStaleignoreOnlyWhenEnabled checks staleignore stays inert unless it
// is in the analyzer list, so a -run subset cannot false-flag directives
// for analyzers that did not run.
func TestStaleignoreOnlyWhenEnabled(t *testing.T) {
	prog := loadFlowmod(t)
	diags := RunAnalyzers(prog, []*Analyzer{Gospawn()})
	for _, d := range diags {
		if d.Analyzer == "staleignore" {
			t.Errorf("staleignore finding without the analyzer enabled: %v", d)
		}
	}
}

// --- call-graph golden tests ---------------------------------------------

// graphName renders a function the way the golden tables name it.
func graphName(fn *types.Func) string {
	if r := receiverTypeName(fn); r != "" {
		return r + "." + fn.Name()
	}
	return fn.Name()
}

func flowFuncByName(t *testing.T, g *flowGraph, pkgPath, name string) *flowFunc {
	t.Helper()
	for _, ff := range g.order {
		if ff.pkg.Path == pkgPath && graphName(ff.fn) == name {
			return ff
		}
	}
	t.Fatalf("function %s not found in %s", name, pkgPath)
	return nil
}

// resolvedCallees returns the sorted set of module functions ff's edges
// reach after dispatch resolution.
func resolvedCallees(g *flowGraph, ff *flowFunc) []string {
	seen := make(map[string]bool)
	for _, e := range ff.edges {
		for _, callee := range g.resolve(e) {
			seen[graphName(callee.fn)] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestFlowGraphGolden pins the resolved call edges of the graphdemo
// fixture: static branches, interface dispatch fan-out, and dynamic
// function/method value references.
func TestFlowGraphGolden(t *testing.T) {
	g := loadFlowmod(t).flow()
	const pkg = "flowmod/graphdemo"
	want := map[string][]string{
		"Dispatch":         {"Fast.Run", "Slow.Run"},
		"Branches":         {"leaf", "step"},
		"TakesValue":       {"step"},
		"TakesMethodValue": {"Fast.Run"},
		"Slow.Run":         {"step"},
		"leaf":             {},
	}
	for name, callees := range want {
		ff := flowFuncByName(t, g, pkg, name)
		got := resolvedCallees(g, ff)
		if len(got) == 0 && len(callees) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, callees) {
			t.Errorf("%s: resolved callees = %v, want %v", name, got, callees)
		}
	}

	// Dispatch's interface call and the value references are dynamic;
	// Branches' direct calls are not.
	for _, e := range flowFuncByName(t, g, pkg, "Dispatch").edges {
		if !e.dynamic {
			t.Errorf("Dispatch edge to %s: want dynamic (interface dispatch)", e.callee.Name())
		}
	}
	for _, e := range flowFuncByName(t, g, pkg, "Branches").edges {
		if e.dynamic {
			t.Errorf("Branches edge to %s: want static", e.callee.Name())
		}
	}
	for _, e := range flowFuncByName(t, g, pkg, "TakesValue").edges {
		if !e.dynamic || e.call != nil {
			t.Errorf("TakesValue edge: want dynamic value reference, got dynamic=%v call=%v", e.dynamic, e.call)
		}
	}

	// Reverse edges: step's callers.
	step := flowFuncByName(t, g, pkg, "step")
	var callers []string
	for _, c := range step.callers {
		callers = append(callers, graphName(c.fn))
	}
	sort.Strings(callers)
	if want := []string{"Branches", "Slow.Run", "TakesValue"}; !reflect.DeepEqual(callers, want) {
		t.Errorf("step callers = %v, want %v", callers, want)
	}
}

// TestTaintSummaries drives the allocbound config over flowmod and
// inspects the interprocedural summaries directly: result taint out of a
// helper, parameter taint into a helper, and cleanliness after a
// sanitizer.
func TestTaintSummaries(t *testing.T) {
	prog := loadFlowmod(t)
	g := prog.flow()
	cfg := allocboundConfig("flowmod", []string{"flowmod/wire", "flowmod/regress"}, []string{"flowmod/wire"})
	st := newTaintState(prog, cfg)
	st.run()

	parse := flowFuncByName(t, g, "flowmod/wire", "parseCount")
	if fs := st.fstate[parse.fn]; fs == nil || len(fs.results) == 0 || fs.results[0] == nil {
		t.Errorf("parseCount: result summary should be tainted (strconv source)")
	}

	alloc := flowFuncByName(t, g, "flowmod/wire", "allocFor")
	if fs := st.fstate[alloc.fn]; fs == nil || len(fs.params) == 0 || fs.params[0] == nil {
		t.Errorf("allocFor: parameter summary should be tainted (BadCallerTaint passes wire data)")
	}

	checked := flowFuncByName(t, g, "flowmod/wire", "GoodChecked")
	if fs := st.fstate[checked.fn]; fs != nil && len(fs.results) > 0 && fs.results[0] != nil {
		t.Errorf("GoodChecked: result summary should be clean after wirelimit.CheckDim")
	}
}

// TestCarriesSize pins the type filter that keeps allocbound focused on
// sizes: signed ints carry, entropy and validated types do not.
func TestCarriesSize(t *testing.T) {
	carries := func(t types.Type) bool {
		return carriesSize(t, "flowmod", make(map[types.Type]bool))
	}
	intT := types.Typ[types.Int]
	if !carries(intT) {
		t.Error("int must carry size taint")
	}
	if carries(types.Typ[types.Uint64]) {
		t.Error("uint64 (seeds, hashes) must not carry")
	}
	if carries(types.Typ[types.String]) {
		t.Error("string must not carry")
	}
	if !carries(types.NewSlice(intT)) {
		t.Error("[]int must carry (element does)")
	}
	if carries(types.NewSlice(types.Typ[types.String])) {
		t.Error("[]string must not carry")
	}
	fields := []*types.Var{
		types.NewField(0, nil, "Name", types.Typ[types.String], false),
		types.NewField(0, nil, "Rows", intT, false),
	}
	st := types.NewStruct(fields, nil)
	if !carries(st) {
		t.Error("struct with an int field must carry")
	}
	// A self-referential type must not send the walk into a loop.
	named := types.NewNamed(types.NewTypeName(0, nil, "node", nil), nil, nil)
	named.SetUnderlying(types.NewStruct([]*types.Var{
		types.NewField(0, nil, "next", types.NewPointer(named), false),
	}, nil))
	if carries(named) {
		t.Error("pointer-only self-referential struct must not carry")
	}
}

package invariant

import (
	"errors"
	"strings"
	"testing"

	"compact/internal/graph"
)

// cycle returns the cycle graph C_n.
func cycle(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		if err := g.AddEdge(i, (i+1)%n); err != nil {
			panic(err)
		}
	}
	return g
}

func TestErrorShape(t *testing.T) {
	err := Violationf("oct.residual-bipartite", "edge (%d,%d)", 1, 2)
	var ie *Error
	if !errors.As(err, &ie) {
		t.Fatalf("Violationf result is not an *Error: %T", err)
	}
	if ie.Check != "oct.residual-bipartite" {
		t.Errorf("Check = %q", ie.Check)
	}
	msg := err.Error()
	if !strings.Contains(msg, "oct.residual-bipartite") || !strings.Contains(msg, "edge (1,2)") {
		t.Errorf("Error() = %q, want check name and detail", msg)
	}
}

func TestResidualBipartite(t *testing.T) {
	g := cycle(5) // odd cycle: removing one vertex leaves a path
	oct := map[int]bool{0: true}
	side := []int{-1, 0, 1, 0, 1}
	if err := ResidualBipartite(g, oct, side); err != nil {
		t.Errorf("valid OCT rejected: %v", err)
	}

	// Corruption 1: empty transversal on an odd cycle — some residual edge
	// must join equal sides whatever the coloring.
	if err := ResidualBipartite(g, map[int]bool{}, []int{0, 1, 0, 1, 0}); err == nil {
		t.Error("odd cycle with empty transversal passed")
	}
	// Corruption 2: transversal vertex not marked -1.
	if err := ResidualBipartite(g, oct, []int{0, 0, 1, 0, 1}); err == nil {
		t.Error("transversal vertex with side 0 passed")
	}
	// Corruption 3: residual vertex carrying the -1 marker.
	if err := ResidualBipartite(g, oct, []int{-1, -1, 1, 0, 1}); err == nil {
		t.Error("residual vertex with side -1 passed")
	}
	// Corruption 4: side slice length mismatch.
	if err := ResidualBipartite(g, oct, []int{-1, 0, 1}); err == nil {
		t.Error("short side slice passed")
	}
}

func TestEdgesSpanHV(t *testing.T) {
	g := cycle(4)
	// Proper alternating H/V labeling of C4.
	h := map[int]bool{0: true, 2: true}
	hasH := func(v int) bool { return h[v] }
	hasV := func(v int) bool { return !h[v] }
	if err := EdgesSpanHV(g, hasH, hasV); err != nil {
		t.Errorf("valid labeling rejected: %v", err)
	}
	// Corruption: all nodes H-only — every edge is H–H, unrealizable.
	allH := func(int) bool { return true }
	noV := func(int) bool { return false }
	err := EdgesSpanHV(g, allH, noV)
	if err == nil {
		t.Fatal("H-H edges passed")
	}
	var ie *Error
	if !errors.As(err, &ie) || ie.Check != "labeling.edge-spans-hv" {
		t.Errorf("wrong error: %v", err)
	}
}

func TestSemiperimeter(t *testing.T) {
	if err := Semiperimeter(5, 2, 7); err != nil {
		t.Errorf("S = n + k rejected: %v", err)
	}
	if err := Semiperimeter(5, 2, 8); err == nil {
		t.Error("S != n + k passed")
	}
}

func TestGridDims(t *testing.T) {
	if err := GridDims([]int{3, 4}, []int{3, 4}); err != nil {
		t.Errorf("matching dims rejected: %v", err)
	}
	if err := GridDims([]int{3, 4}, []int{4, 3}); err == nil {
		t.Error("swapped dims passed")
	}
	if err := GridDims([]int{3, 4}, []int{3, 4, 1}); err == nil {
		t.Error("missing layer passed")
	}
}

func TestProgrammedCells(t *testing.T) {
	if err := ProgrammedCells(7, 5, 2); err != nil {
		t.Errorf("edges + stitches rejected: %v", err)
	}
	if err := ProgrammedCells(6, 5, 2); err == nil {
		t.Error("lost device passed")
	}
	if err := ProgrammedCells(8, 5, 2); err == nil {
		t.Error("invented device passed")
	}
}

func TestBoundedValues(t *testing.T) {
	lo := []float64{0, 0, -1}
	up := []float64{1, 2, 1}
	if err := BoundedValues("t", []float64{0, 2, -1}, lo, up, 1e-9); err != nil {
		t.Errorf("in-box solution rejected: %v", err)
	}
	// Within tolerance of a bound.
	if err := BoundedValues("t", []float64{1 + 1e-10, 0, 0}, lo, up, 1e-9); err != nil {
		t.Errorf("tolerance not honored: %v", err)
	}
	// Corruption: clear bound violation.
	if err := BoundedValues("t", []float64{1.5, 0, 0}, lo, up, 1e-9); err == nil {
		t.Error("out-of-box value passed")
	}
	// Corruption: more values than bounds.
	if err := BoundedValues("t", []float64{0, 0, 0, 0}, lo, up, 1e-9); err == nil {
		t.Error("length mismatch passed")
	}
}

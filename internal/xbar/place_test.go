package xbar

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"compact/internal/bdd"
	"compact/internal/defect"
	"compact/internal/labeling"
)

// synthDesign builds a small design (and its network) for placement tests.
func synthDesign(t *testing.T, seed int64) (*Design, func([]bool) []bool, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nw := randomNetwork(rng, 5, 12)
	m, roots, err := bdd.BuildNetwork(nw, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := FromBDD(m, roots, nw.OutputNames)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := labeling.SolveContext(context.Background(), bg.Problem(true), labeling.Options{Method: labeling.MethodHeuristic})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Map(bg, sol.Labels)
	if err != nil {
		t.Fatal(err)
	}
	return d, nw.Eval, 5
}

// assertEquivalent checks that the effective design still computes the
// same function as the reference network on every assignment (5 inputs).
func assertEquivalent(t *testing.T, eff *Design, ref func([]bool) []bool, nVars int) {
	t.Helper()
	if bad := eff.VerifyAgainst(ref, nVars, nVars, 0, 1); bad != nil {
		t.Fatalf("effective design disagrees with the network on %v", bad)
	}
}

func TestPlaceIdentityOnCleanArray(t *testing.T) {
	d, _, _ := synthDesign(t, 1)
	dm, err := defect.New(d.Rows, d.Cols)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PlaceContext(context.Background(), d, dm, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Engine != "identity" {
		t.Fatalf("engine %q, want identity", pl.Engine)
	}
	for i, p := range pl.RowPerm {
		if p != i {
			t.Fatalf("identity RowPerm[%d] = %d", i, p)
		}
	}
}

func TestPlaceNilMapIsIdentity(t *testing.T) {
	d, ref, n := synthDesign(t, 2)
	pl, err := PlaceContext(context.Background(), d, nil, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eff, err := d.UnderDefects(nil, pl)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, eff, ref, n)
}

// findLitCell returns the position of some literal cell.
func findLitCell(t *testing.T, d *Design) (int, int) {
	t.Helper()
	for r := 0; r < d.Rows; r++ {
		for c := 0; c < d.Cols; c++ {
			if d.Cells[r][c].Kind == Lit {
				return r, c
			}
		}
	}
	t.Fatal("design has no literal cells")
	return 0, 0
}

func TestPlaceAvoidsStuckOffUnderLiteral(t *testing.T) {
	d, ref, n := synthDesign(t, 3)
	r, c := findLitCell(t, d)
	// One spare row and column so the permutation always has room.
	dm, err := defect.New(d.Rows+1, d.Cols+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dm.Set(r, c, defect.StuckOff); err != nil {
		t.Fatal(err)
	}
	pl, err := PlaceContext(context.Background(), d, dm, PlaceOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if lr, lc := pl.RowPerm[r], pl.ColPerm[c]; lr == r && lc == c {
		t.Fatalf("literal cell left on the stuck-OFF device at (%d,%d)", r, c)
	}
	eff, err := d.UnderDefects(dm, pl)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, eff, ref, n)
}

func TestPlaceUnplaceableProvenWithWitness(t *testing.T) {
	d, _, _ := synthDesign(t, 4)
	// Every physical column is stuck-OFF in every row: no programmed cell
	// can land anywhere, and every row of a synthesized design has at
	// least one programmed cell.
	dm, err := defect.New(d.Rows, d.Cols)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < d.Rows; r++ {
		for c := 0; c < d.Cols; c++ {
			if err := dm.Set(r, c, defect.StuckOff); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, err = PlaceContext(context.Background(), d, dm, PlaceOptions{})
	var up *Unplaceable
	if !errors.As(err, &up) {
		t.Fatalf("error %v is not *Unplaceable", err)
	}
	if up.LogicalRow < 0 || up.Candidates != 0 {
		t.Fatalf("witness row %d with %d candidates; want a zero-candidate row", up.LogicalRow, up.Candidates)
	}
	if !up.Proven {
		t.Fatalf("fully stuck-OFF array not proven unplaceable: %v", up)
	}
	if up.Error() == "" {
		t.Fatal("empty error message")
	}
}

func TestPlaceDimsTooSmall(t *testing.T) {
	d, _, _ := synthDesign(t, 5)
	dm, err := defect.New(d.Rows-1, d.Cols)
	if err != nil {
		t.Fatal(err)
	}
	_, err = PlaceContext(context.Background(), d, dm, PlaceOptions{})
	var up *Unplaceable
	if !errors.As(err, &up) || up.Stage != "dims" || !up.Proven {
		t.Fatalf("want proven dims-stage Unplaceable, got %v", err)
	}
}

func TestPlaceILPEngineSolvesConstrained(t *testing.T) {
	d, ref, n := synthDesign(t, 6)
	// Stick a fault under a literal cell with one spare row/col and force
	// the exact engine: it must find a compatible permutation directly.
	r, c := findLitCell(t, d)
	dm, err := defect.New(d.Rows+1, d.Cols+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dm.Set(r, c, defect.StuckOff); err != nil {
		t.Fatal(err)
	}
	pl, err := PlaceContext(context.Background(), d, dm, PlaceOptions{Engine: PlaceILP})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Engine != "ilp" {
		t.Fatalf("engine %q, want ilp", pl.Engine)
	}
	eff, err := d.UnderDefects(dm, pl)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, eff, ref, n)
}

// TestPlaceForcedILPSkipsIdentityShortcut: with faults present, forcing
// the exact engine must actually run it even when the identity binding is
// compatible — core's repair loop forces PlaceILP to explore beyond a
// placement that failed downstream verification, and the shortcut would
// otherwise hand every retry the same identity binding.
func TestPlaceForcedILPSkipsIdentityShortcut(t *testing.T) {
	d, ref, n := synthDesign(t, 8)
	// A stuck-OFF device under an Off cell is identity-compatible.
	var r, c = -1, -1
	for i := 0; i < d.Rows && r < 0; i++ {
		for j := 0; j < d.Cols; j++ {
			if d.Cells[i][j].Kind == Off {
				r, c = i, j
				break
			}
		}
	}
	if r < 0 {
		t.Skip("design has no Off cell")
	}
	dm, err := defect.New(d.Rows, d.Cols)
	if err != nil {
		t.Fatal(err)
	}
	if err := dm.Set(r, c, defect.StuckOff); err != nil {
		t.Fatal(err)
	}
	pl, err := PlaceContext(context.Background(), d, dm, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Engine != "identity" {
		t.Fatalf("default engine %q, want the identity shortcut", pl.Engine)
	}
	pl, err = PlaceContext(context.Background(), d, dm, PlaceOptions{Engine: PlaceILP})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Engine != "ilp" {
		t.Fatalf("forced exact engine %q, want ilp", pl.Engine)
	}
	eff, err := d.UnderDefects(dm, pl)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, eff, ref, n)
}

func TestPlaceCanceledContext(t *testing.T) {
	d, _, _ := synthDesign(t, 7)
	dm, err := defect.Generate(d.Rows, d.Cols, 0.2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PlaceContext(ctx, d, dm, PlaceOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestUnderDefectsOverrides(t *testing.T) {
	d := NewDesign(2, 2)
	d.VarNames = []string{"a"}
	d.InputRow = 1
	d.OutputRows = []int{0}
	d.Cells[0][0] = Entry{Kind: Lit, Var: 0}
	d.Cells[1][0] = Entry{Kind: On}
	dm, err := defect.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := dm.Set(0, 0, defect.StuckOff); err != nil {
		t.Fatal(err)
	}
	if err := dm.Set(0, 1, defect.StuckOn); err != nil {
		t.Fatal(err)
	}
	eff, err := d.UnderDefects(dm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eff.Cells[0][0].Kind != Off {
		t.Fatalf("stuck-OFF override: %v", eff.Cells[0][0])
	}
	if eff.Cells[0][1].Kind != On {
		t.Fatalf("stuck-ON override: %v", eff.Cells[0][1])
	}
	// The original is untouched.
	if d.Cells[0][0].Kind != Lit || d.Cells[0][1].Kind != Off {
		t.Fatal("UnderDefects mutated the receiver")
	}
	// f was a: now the literal path is gone but the stuck-ON at (0,1)
	// bridges row 0 to col 1; col 1 is otherwise isolated, so f is 0 only
	// until the On stitch at (1,0) is considered: row1-col0-row0 via cells
	// (1,0) on and (0,0) off -> f = 0 for a=1? Evaluate both to be sure.
	got := eff.Eval([]bool{true})
	want := []bool{true} // row1 ~ col0 via On stitch; (0,0) is now Off; (0,1) bridges row0~col1 but col1 has no other device -> f=0... assert computed value
	_ = want
	// Recompute by hand: conducting cells are (1,0) [On] and (0,1)
	// [stuck-ON]. Components: {row1, col0}, {row0, col1}. Input row 1,
	// output row 0 -> disconnected -> f = 0.
	if got[0] {
		t.Fatalf("effective eval = %v, want f=0 (literal path severed)", got)
	}
}

func TestEvalDefectsMatchesUnderDefects(t *testing.T) {
	d, _, n := synthDesign(t, 8)
	dm, err := defect.Generate(d.Rows, d.Cols, 0.1, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	eff, err := d.UnderDefects(dm, nil)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 1<<n; a++ {
		in := make([]bool, n)
		for i := range in {
			in[i] = a&(1<<i) != 0
		}
		direct, err := d.EvalDefects(in, dm, nil)
		if err != nil {
			t.Fatal(err)
		}
		via := eff.Eval(in)
		for o := range via {
			if direct[o] != via[o] {
				t.Fatalf("EvalDefects disagrees with UnderDefects.Eval on %v", in)
			}
		}
	}
}

func TestProgramDefectsStuckCellsNeverSwitch(t *testing.T) {
	d, _, n := synthDesign(t, 9)
	r, c := findLitCell(t, d)
	dm, err := defect.New(d.Rows, d.Cols)
	if err != nil {
		t.Fatal(err)
	}
	if err := dm.Set(r, c, defect.StuckOn); err != nil {
		t.Fatal(err)
	}
	var prev *Programming
	for a := 0; a < 1<<n; a++ {
		in := make([]bool, n)
		for i := range in {
			in[i] = a&(1<<i) != 0
		}
		p, err := d.ProgramDefects(in, dm, nil, prev)
		if err != nil {
			t.Fatal(err)
		}
		if !p.RowPatterns[r][c] {
			t.Fatalf("stuck-ON device reported non-conducting at assignment %v", in)
		}
		if prev != nil && p.RowPatterns[r][c] != prev.RowPatterns[r][c] {
			t.Fatal("stuck device switched state")
		}
		prev = p
	}
}

func TestPlacementValidation(t *testing.T) {
	d, _, _ := synthDesign(t, 10)
	dm, err := defect.New(d.Rows, d.Cols)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Placement{RowPerm: make([]int, d.Rows), ColPerm: make([]int, d.Cols)}
	// All-zero row perm is not injective (for designs with >1 row).
	if d.Rows > 1 {
		if _, err := d.UnderDefects(dm, bad); err == nil {
			t.Fatal("non-injective placement accepted")
		}
	}
	outOfRange := &Placement{RowPerm: make([]int, d.Rows), ColPerm: make([]int, d.Cols)}
	for i := range outOfRange.RowPerm {
		outOfRange.RowPerm[i] = i
	}
	for i := range outOfRange.ColPerm {
		outOfRange.ColPerm[i] = i
	}
	outOfRange.RowPerm[0] = d.Rows + 5
	if _, err := d.UnderDefects(dm, outOfRange); err == nil {
		t.Fatal("out-of-range placement accepted")
	}
}

func TestPlaceCandidatesIdentityFirstAndDistinct(t *testing.T) {
	d, ref, n := synthDesign(t, 6)
	// A fault on a spare line keeps identity compatible while forcing the
	// enumeration to actually search for alternatives.
	dm, err := defect.New(d.Rows+1, d.Cols+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dm.Set(d.Rows, d.Cols, defect.StuckOn); err != nil {
		t.Fatal(err)
	}
	cands, err := PlaceCandidates(context.Background(), d, dm, PlaceOptions{Seed: 9}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates on a nearly clean array")
	}
	if cands[0].Engine != "identity" {
		t.Errorf("first candidate engine %q, want identity", cands[0].Engine)
	}
	seen := map[string]bool{}
	for _, pl := range cands {
		key := ""
		for _, p := range append(append([]int{}, pl.RowPerm...), pl.ColPerm...) {
			key += string(rune('A' + p))
		}
		if seen[key] {
			t.Errorf("duplicate candidate %v/%v", pl.RowPerm, pl.ColPerm)
		}
		seen[key] = true
		eff, err := d.UnderDefects(dm, pl)
		if err != nil {
			t.Fatal(err)
		}
		assertEquivalent(t, eff, ref, n)
	}
	// Determinism: same inputs, same candidate list.
	again, err := PlaceCandidates(context.Background(), d, dm, PlaceOptions{Seed: 9}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(cands) {
		t.Fatalf("candidate count not deterministic: %d vs %d", len(cands), len(again))
	}
	for i := range cands {
		if !equalIntSlice(cands[i].RowPerm, again[i].RowPerm) || !equalIntSlice(cands[i].ColPerm, again[i].ColPerm) {
			t.Errorf("candidate %d not deterministic", i)
		}
	}
}

func equalIntSlice(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPlaceCandidatesCleanArraySingleIdentity(t *testing.T) {
	d, _, _ := synthDesign(t, 7)
	dm, err := defect.New(d.Rows, d.Cols)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := PlaceCandidates(context.Background(), d, dm, PlaceOptions{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Engine != "identity" {
		t.Fatalf("fault-free enumeration should be exactly [identity], got %d candidates", len(cands))
	}
}

func TestPlaceCandidatesDimsError(t *testing.T) {
	d, _, _ := synthDesign(t, 8)
	dm, err := defect.New(d.Rows-1, d.Cols)
	if err != nil {
		t.Fatal(err)
	}
	_, err = PlaceCandidates(context.Background(), d, dm, PlaceOptions{}, 2)
	var up *Unplaceable
	if !errors.As(err, &up) || !up.Proven || up.Stage != "dims" {
		t.Fatalf("undersized array not rejected with a proven dims Unplaceable: %v", err)
	}
}

func TestPlaceCandidatesCanceledContext(t *testing.T) {
	d, _, _ := synthDesign(t, 9)
	dm, err := defect.New(d.Rows+1, d.Cols+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dm.Set(0, 0, defect.StuckOff); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PlaceCandidates(ctx, d, dm, PlaceOptions{}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead context not surfaced: %v", err)
	}
}

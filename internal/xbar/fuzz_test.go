package xbar

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"compact/internal/bdd"
	"compact/internal/invariant"
)

// FuzzDesignJSON asserts that decoding arbitrary bytes as a Design — the
// crossbar body or the layered one — never panics or over-allocates
// (every wire-declared dimension is bounded before allocation), that any
// accepted design evaluates safely with the scalar and word-parallel
// evaluators agreeing (Eval with a NumVars-sized assignment, EvalChecked
// with a deliberately short one), and that accepted designs survive an
// encode → decode round trip byte-for-byte.
func FuzzDesignJSON(f *testing.F) {
	seeds := []string{
		`{"v":1,"rows":2,"cols":2,"input_row":1,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"lit","var":0},{"r":1,"c":0,"k":"on"}]}`,
		`{"v":1,"rows":0,"cols":0,"input_row":0,"output_rows":[],"cells":[]}`,
		`{"v":1,"rows":3,"cols":2,"input_row":2,"output_rows":[0,0],"output_names":["f","g"],"var_names":["a"],"cells":[{"r":0,"c":1,"k":"lit","var":0,"neg":true}]}`,
		// Accepted by the decoder: no var_names, so the large literal index
		// is unchecked at decode time — Eval must still be safe.
		`{"v":1,"rows":1,"cols":1,"input_row":0,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"lit","var":1000}]}`,
		// Rejected inputs: bad version, bad coordinates, duplicate cell,
		// unknown kind, out-of-range references.
		`{"v":2,"rows":1,"cols":1}`,
		`{"v":1,"rows":-1,"cols":4}`,
		`{"v":1,"rows":1,"cols":1,"input_row":5,"output_rows":[0]}`,
		`{"v":1,"rows":2,"cols":2,"input_row":0,"output_rows":[9]}`,
		`{"v":1,"rows":2,"cols":2,"input_row":0,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"on"},{"r":0,"c":0,"k":"on"}]}`,
		`{"v":1,"rows":2,"cols":2,"input_row":0,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"wat"}]}`,
		`{"v":1,"rows":2,"cols":2,"input_row":0,"output_rows":[0],"var_names":["a"],"cells":[{"r":0,"c":0,"k":"lit","var":7}]}`,
		`not json`,
		`{}`,
		`[]`,
		// Layered bodies: two- and three-layer stacks, accepted and
		// rejected (layer flood, width bombs, odd-layer and out-of-range
		// references, a cell on a missing plane).
		`{"v":1,"widths":[2,2],"input":{"l":0,"i":1},"outputs":[{"l":0,"i":0}],"cells":[{"d":0,"r":0,"c":0,"k":"lit","var":0},{"d":0,"r":1,"c":0,"k":"on"}]}`,
		`{"v":1,"widths":[2,2,2],"input":{"l":0,"i":0},"outputs":[{"l":2,"i":1}],"var_names":["a","b"],"cells":[{"d":0,"r":0,"c":1,"k":"lit","var":1,"neg":true},{"d":1,"r":1,"c":1,"k":"on"}]}`,
		`{"v":1,"widths":[1,1,1],"input":{"l":0,"i":0},"outputs":[{"l":2,"i":0}],"cells":[{"d":1,"r":0,"c":0,"k":"lit","var":1000}]}`,
		`{"v":1,"widths":[4]}`,
		`{"v":1,"widths":[1,1,1,1,1,1,1,1,1]}`,
		`{"v":1,"widths":[2147483647,2],"input":{"l":0,"i":0},"outputs":[],"cells":[]}`,
		`{"v":1,"widths":[65536,65536,65536],"input":{"l":0,"i":0},"outputs":[],"cells":[]}`,
		`{"v":1,"widths":[2,2,2],"input":{"l":0,"i":0},"outputs":[{"l":1,"i":0}],"cells":[]}`,
		`{"v":1,"widths":[2,2],"input":{"l":0,"i":0},"outputs":[],"cells":[{"d":1,"r":0,"c":0,"k":"on"}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Design
		if err := json.Unmarshal(data, &d); err != nil {
			return
		}
		// Accepted designs must evaluate with a sufficient assignment, and
		// the word-parallel sweep must agree with the scalar oracle on the
		// all-false and all-true assignments…
		n := d.NumVars()
		for _, bit := range []bool{false, true} {
			in := make([]bool, n)
			words := make([]uint64, n)
			for i := range in {
				in[i] = bit
				if bit {
					words[i] = ^uint64(0)
				}
			}
			want := d.Eval(in)
			if len(want) != len(d.Outputs) {
				t.Fatalf("Eval returned %d outputs for %d outputs", len(want), len(d.Outputs))
			}
			got := d.Eval64(words)
			for o := range want {
				if want[o] != (got[o]&1 == 1) {
					t.Fatalf("scalar/word disagreement on output %d under all-%v", o, bit)
				}
			}
		}
		// …and a short assignment must fail closed, never panic. (NumVars
		// also counts named-but-unreferenced variables, which EvalChecked
		// does not require the assignment to cover — hence the Lit scan.)
		if lits := d.Stats().LitCells; lits > 0 {
			if _, err := d.EvalChecked(nil); err == nil {
				t.Fatal("EvalChecked accepted a nil assignment for a design with literals")
			}
		}
		enc, err := json.Marshal(&d)
		if err != nil {
			t.Fatalf("re-encoding an accepted design failed: %v", err)
		}
		var d2 Design
		if err := json.Unmarshal(enc, &d2); err != nil {
			t.Fatalf("round trip rejected its own output: %v\n%s", err, enc)
		}
		enc2, err := json.Marshal(&d2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip not byte-stable:\n%s\n%s", enc, enc2)
		}
	})
}

// TestDecodedDesignShortAssignment is the deterministic regression for the
// wire-decode hole the fuzz target covers: with no var_names the decoder
// cannot bound literal indices, so evaluation must catch the short
// assignment itself rather than panic with an index error.
func TestDecodedDesignShortAssignment(t *testing.T) {
	raw := `{"v":1,"rows":1,"cols":1,"input_row":0,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"lit","var":1000}]}`
	var d Design
	if err := json.Unmarshal([]byte(raw), &d); err != nil {
		t.Fatal(err)
	}
	if got, want := d.NumVars(), 1001; got != want {
		t.Fatalf("NumVars = %d, want %d", got, want)
	}
	_, err := d.EvalChecked(make([]bool, 3))
	var ie *invariant.Error
	if !errors.As(err, &ie) {
		t.Fatalf("EvalChecked error %v is not an *invariant.Error", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Eval did not panic on a short assignment")
		}
		if _, ok := r.(*invariant.Error); !ok {
			t.Fatalf("Eval panicked with %T %v, want *invariant.Error", r, r)
		}
	}()
	d.Eval(make([]bool, 3))
}

// TestEntryConductsShortAssignment pins the cell-level backstop: a literal
// the assignment does not cover never conducts (and never panics).
func TestEntryConductsShortAssignment(t *testing.T) {
	e := Entry{Kind: Lit, Var: 5}
	if e.Conducts([]bool{true, true}) {
		t.Fatal("uncovered literal conducts")
	}
	if (Entry{Kind: Lit, Var: -1}).Conducts([]bool{true}) {
		t.Fatal("negative literal index conducts")
	}
	neg := Entry{Kind: Lit, Var: 9, Neg: true}
	if neg.Conducts(nil) {
		t.Fatal("uncovered negated literal conducts")
	}
}

// bytesDesign decodes a small design from fuzz bytes: a header of rows,
// columns, variable count and input row (each up to 6), then one byte per
// cell in row-major order — b%3 picks Off, On or Lit; a literal reads
// variable (b/3)%nVars, complemented when b >= 128. Every row is sensed.
func bytesDesign(data []byte) (*Design, int) {
	if len(data) < 4 {
		return nil, 0
	}
	rows, cols, nVars := 1+int(data[0]%6), 1+int(data[1]%6), 1+int(data[2]%6)
	d := testDesign(rows, cols)
	d.Input = WireRef{Index: int(data[3]) % rows}
	for r := 0; r < rows; r++ {
		d.Outputs = append(d.Outputs, WireRef{Index: r})
	}
	for i, b := range data[4:] {
		if i >= rows*cols {
			break
		}
		switch b % 3 {
		case 1:
			setCell(&d.Planes[0], i/cols, i%cols, Entry{Kind: On})
		case 2:
			setCell(&d.Planes[0], i/cols, i%cols, Entry{Kind: Lit, Var: int32(int(b/3) % nVars), Neg: b >= 128})
		}
	}
	return d, nVars
}

// FuzzClosureVsEval is the differential target for the symbolic closure
// in a permuted variable order, the way Prove builds it: on a design of
// at most 6 variables and a seeded level permutation, every output
// function the closure computes must agree with the scalar Eval on all
// 2^n assignments.
func FuzzClosureVsEval(f *testing.F) {
	f.Add([]byte{2, 1, 1, 2, 2, 5, 1, 0, 1, 1}, uint64(1))                      // 3x2 AND-style chain
	f.Add([]byte{3, 3, 5, 0, 2, 5, 8, 11, 14, 130, 133, 1, 4, 7, 0}, uint64(7)) // 4x4, 6 variables
	f.Add([]byte{5, 5, 2, 5, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, uint64(99))   // dense 6x6 literals
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		d, n := bytesDesign(data)
		if d == nil {
			return
		}
		// perm[level] is the variable at that level; pos inverts it.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		state := seed | 1
		for i := n - 1; i > 0; i-- {
			state = state*6364136223846793005 + 1442695040888963407
			j := int(state>>33) % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		names := make([]string, n)
		for level, v := range perm {
			names[level] = fmt.Sprintf("x%d", v)
		}
		m := bdd.New(names)
		vars := make([]bdd.Node, n)
		for level, v := range perm {
			vars[v] = m.Var(level)
		}
		outs, err := Closure(d.Wires(), m, vars)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]bool, n)
		levels := make([]bool, n)
		for a := 0; a < 1<<uint(n); a++ {
			for v := range in {
				in[v] = a>>uint(v)&1 == 1
			}
			for level, v := range perm {
				levels[level] = in[v]
			}
			want := d.Eval(in)
			for o, f := range outs {
				if m.Eval(f, levels) != want[o] {
					t.Fatalf("perm %v, assignment %v, output %d: closure %v, Eval %v",
						perm, in, o, !want[o], want[o])
				}
			}
		}
	})
}

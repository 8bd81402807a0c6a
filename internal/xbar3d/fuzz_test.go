package xbar3d

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDesign3DJSON asserts that decoding arbitrary bytes as a Design3D
// never panics or over-allocates (every wire-declared dimension is bounded
// before dense allocation), that any accepted design evaluates safely with
// the scalar and word-parallel evaluators agreeing, and that accepted
// designs survive an encode → decode round trip byte-for-byte.
func FuzzDesign3DJSON(f *testing.F) {
	seeds := []string{
		`{"v":1,"widths":[2,2],"input":{"l":0,"i":1},"outputs":[{"l":0,"i":0}],"cells":[{"d":0,"r":0,"c":0,"k":"lit","var":0},{"d":0,"r":1,"c":0,"k":"on"}]}`,
		`{"v":1,"widths":[2,2,2],"input":{"l":0,"i":0},"outputs":[{"l":2,"i":1}],"var_names":["a","b"],"cells":[{"d":0,"r":0,"c":1,"k":"lit","var":1,"neg":true},{"d":1,"r":1,"c":1,"k":"on"}]}`,
		`{"v":1,"widths":[1,1],"input":{"l":0,"i":0},"outputs":[],"cells":[]}`,
		// Accepted: no var_names, so the large literal index is unchecked at
		// decode time — Eval must still be safe.
		`{"v":1,"widths":[1,1],"input":{"l":0,"i":0},"outputs":[{"l":1,"i":0}],"cells":[{"d":0,"r":0,"c":0,"k":"lit","var":1000}]}`,
		// Rejected inputs: bad version, layer flood, width bombs, bad refs,
		// duplicate and unknown cells.
		`{"v":2,"widths":[2,2]}`,
		`{"v":1,"widths":[4]}`,
		`{"v":1,"widths":[1,1,1,1,1,1,1,1,1]}`,
		`{"v":1,"widths":[2147483647,2],"input":{"l":0,"i":0},"outputs":[],"cells":[]}`,
		`{"v":1,"widths":[65536,65536,65536],"input":{"l":0,"i":0},"outputs":[],"cells":[]}`,
		`{"v":1,"widths":[-3,2],"input":{"l":0,"i":0},"outputs":[],"cells":[]}`,
		`{"v":1,"widths":[2,2],"input":{"l":5,"i":0},"outputs":[],"cells":[]}`,
		`{"v":1,"widths":[2,2],"input":{"l":0,"i":0},"outputs":[{"l":1,"i":9}],"cells":[]}`,
		`{"v":1,"widths":[2,2],"input":{"l":0,"i":0},"outputs":[],"cells":[{"d":0,"r":0,"c":0,"k":"on"},{"d":0,"r":0,"c":0,"k":"on"}]}`,
		`{"v":1,"widths":[2,2],"input":{"l":0,"i":0},"outputs":[],"cells":[{"d":0,"r":0,"c":0,"k":"wat"}]}`,
		`{"v":1,"widths":[2,2],"input":{"l":0,"i":0},"outputs":[],"var_names":["a"],"cells":[{"d":0,"r":0,"c":0,"k":"lit","var":7}]}`,
		`not json`,
		`{}`,
		`[]`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Design3D
		if err := json.Unmarshal(data, &d); err != nil {
			return
		}
		// Accepted designs must evaluate with a sufficient assignment, and
		// the word-parallel closure must agree with the scalar oracle on the
		// all-false and all-true assignments.
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
			want, err := d.EvalChecked(in)
			if err != nil {
				t.Fatalf("decoded design does not evaluate: %v", err)
			}
			got, err := d.Eval64Checked(words)
			if err != nil {
				t.Fatalf("decoded design does not word-evaluate: %v", err)
			}
			for o := range want {
				if want[o] != (got[o]&1 == 1) {
					t.Fatalf("scalar/word disagreement on output %d under all-%v", o, bit)
				}
			}
		}
		// A short assignment must fail closed, never panic.
		hasLit := false
		for dl := range d.Cells {
			lits, _ := d.Cells[dl].Counts()
			hasLit = hasLit || lits > 0
		}
		if hasLit {
			if _, err := d.EvalChecked(nil); err == nil {
				t.Fatal("EvalChecked accepted a nil assignment for a design with literals")
			}
		}
		enc, err := json.Marshal(&d)
		if err != nil {
			t.Fatalf("re-encoding an accepted design failed: %v", err)
		}
		var d2 Design3D
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

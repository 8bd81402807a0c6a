package xbar

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// fig2Design builds a small hand-made design exercising every cell kind.
func fig2Design() *Design {
	d := testDesign(4, 3,
		Device{0, 0, Entry{Kind: Lit, Var: 0}},
		Device{1, 0, Entry{Kind: On}},
		Device{1, 1, Entry{Kind: Lit, Var: 1, Neg: true}},
		Device{2, 1, Entry{Kind: Lit, Var: 2}},
		Device{3, 2, Entry{Kind: Lit, Var: 0, Neg: true}},
		Device{0, 2, Entry{Kind: On}})
	d.Input = WireRef{Index: 3}
	d.Outputs = rowRefs(0)
	d.OutputNames = []string{"f"}
	d.VarNames = []string{"a", "b", "c"}
	return d
}

func TestDesignJSONRoundTripEvalParity(t *testing.T) {
	orig := fig2Design()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var dec Design
	if err := json.Unmarshal(data, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Rows != orig.Rows || dec.Cols != orig.Cols || dec.Input.Index != orig.Input.Index {
		t.Fatalf("decoded geometry %dx%d/in=%d differs from %dx%d/in=%d",
			dec.Rows, dec.Cols, dec.Input.Index, orig.Rows, orig.Cols, orig.Input.Index)
	}
	// Eval parity over every assignment of the 3 variables.
	for a := 0; a < 8; a++ {
		in := []bool{a&1 != 0, a&2 != 0, a&4 != 0}
		want, got := orig.Eval(in), dec.Eval(in)
		for o := range want {
			if want[o] != got[o] {
				t.Fatalf("Eval parity broken at %v output %d: %v vs %v", in, o, want[o], got[o])
			}
		}
	}
	// A second marshal of the decoded design is byte-identical (stable
	// wire format: cells serialize in row-major order).
	data2, err := json.Marshal(&dec)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("re-marshal not byte-identical:\n%s\n%s", data, data2)
	}
}

func TestDesignJSONSparse(t *testing.T) {
	d := testDesign(50, 50)
	d.Outputs = rowRefs(0)
	setCell(&d.Planes[0], 7, 9, Entry{Kind: On})
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	// 2500 cells, one programmed: the wire form must stay tiny.
	if len(data) > 400 {
		t.Fatalf("sparse encoding is %d bytes for a 1-cell design: %s", len(data), data)
	}
	var dec Design
	if err := json.Unmarshal(data, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Planes[0].At(7, 9).Kind != On {
		t.Fatal("programmed cell lost in round trip")
	}
}

func TestDesignJSONRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"version", `{"v":99,"rows":1,"cols":1,"input_row":0,"output_rows":[],"cells":[]}`, "wire version"},
		{"negative dims", `{"rows":-1,"cols":1,"input_row":0,"output_rows":[],"cells":[]}`, "negative"},
		{"input row", `{"rows":2,"cols":2,"input_row":5,"output_rows":[],"cells":[]}`, "input row"},
		{"output row", `{"rows":2,"cols":2,"input_row":0,"output_rows":[9],"cells":[]}`, "output row"},
		{"names mismatch", `{"rows":2,"cols":2,"input_row":0,"output_rows":[0],"output_names":["a","b"],"cells":[]}`, "output names"},
		{"cell out of range", `{"rows":2,"cols":2,"input_row":0,"output_rows":[0],"cells":[{"r":5,"c":0,"k":"on"}]}`, "outside"},
		{"duplicate cell", `{"rows":2,"cols":2,"input_row":0,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"on"},{"r":0,"c":0,"k":"on"}]}`, "duplicate"},
		{"bad kind", `{"rows":2,"cols":2,"input_row":0,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"maybe"}]}`, "unknown kind"},
		{"bad var", `{"rows":2,"cols":2,"input_row":0,"output_rows":[0],"var_names":["a"],"cells":[{"r":0,"c":0,"k":"lit","var":3}]}`, "references variable"},
		{"negative var", `{"rows":2,"cols":2,"input_row":0,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"lit","var":-1}]}`, "negative variable"},
		{"not json", `{`, "JSON"},
		{"oversized", `{"rows":1000000000,"cols":1000000000,"input_row":0,"output_rows":[],"cells":[]}`, "cap"},
	}
	for _, tc := range cases {
		var d Design
		err := json.Unmarshal([]byte(tc.src), &d)
		if err == nil {
			t.Errorf("%s: malformed design accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestDesignJSONReuseResetsSparseCache(t *testing.T) {
	var d Design
	one := `{"rows":2,"cols":2,"input_row":1,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"on"},{"r":1,"c":0,"k":"on"}]}`
	if err := json.Unmarshal([]byte(one), &d); err != nil {
		t.Fatal(err)
	}
	if got := d.Eval(nil); !got[0] {
		t.Fatal("decoded design should conduct input->output")
	}
	// Re-decode an empty design into the same value: the cached sparse
	// cells from the first decode must not leak through.
	two := `{"rows":2,"cols":2,"input_row":1,"output_rows":[0],"cells":[]}`
	if err := json.Unmarshal([]byte(two), &d); err != nil {
		t.Fatal(err)
	}
	if got := d.Eval(nil); got[0] {
		t.Fatal("stale sparse cache survived re-decode")
	}
}

// TestDecodeEmptyDesignAllocatesSparsely decodes a 8192 x 8192 design
// with no devices: the plane holds its devices, not its 67M crossings, so
// the decode allocates O(rows), not one Entry per crossing (512 MB as a
// dense grid).
func TestDecodeEmptyDesignAllocatesSparsely(t *testing.T) {
	body := []byte(`{"v":1,"rows":8192,"cols":8192,"input_row":0,"output_rows":[0]}`)
	var d Design
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Fatalf("decoding an empty 8192x8192 design allocated %d bytes", got)
	}
	if d.Rows != 8192 || d.Cols != 8192 || d.Planes[0].Len() != 0 || d.Planes[0].At(8191, 8191).Kind != Off {
		t.Fatalf("decoded %dx%d with %d devices", d.Rows, d.Cols, d.Planes[0].Len())
	}
}

// TestWireCompat decodes three bodies written by the separate 2D and
// layered encoders this codec replaced — ctrl's 2D design, the same
// design as a two-layer layered body, and ctrl's three-layer stack — and
// pins the one codec to them: every body decodes, the 2D and three-layer
// bodies re-encode byte for byte, and the two-layer layered body
// re-encodes as the equal 2D body.
func TestWireCompat(t *testing.T) {
	read := func(name string) []byte {
		b, err := os.ReadFile("testdata/wire/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	body2D := read("ctrl_2d")
	for _, tc := range []struct {
		name string
		k    int
		want []byte
	}{
		{"ctrl_2d", 2, body2D},
		{"ctrl_k2_layered", 2, body2D},
		{"ctrl_k3_layered", 3, read("ctrl_k3_layered")},
	} {
		var d Design
		if err := json.Unmarshal(read(tc.name), &d); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d.K() != tc.k {
			t.Fatalf("%s decodes to %d layers, want %d", tc.name, d.K(), tc.k)
		}
		got, err := json.Marshal(&d)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Fatalf("%s re-encodes as\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}

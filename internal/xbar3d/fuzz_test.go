package xbar3d

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDesign3DJSON decodes layered bodies through the Design3D name: the
// one codec must accept them and re-encode them byte-stably. The
// evaluator and allocation properties live in xbar's FuzzDesignJSON,
// which fuzzes both bodies and carries these seeds too.
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

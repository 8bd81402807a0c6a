package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"compact/internal/bench"
	"compact/internal/labeling"
)

// The golden views pin compactd's result body: the View() JSON of ctrl
// under the heuristic labeler at K = 2 and K = 3, with every wall-clock
// field zeroed. The labeling object and the design/design3d keys are what
// the disk tier of the result store keeps, so a drift here would make disk
// hits differ from fresh solves. To regenerate after an intended change,
// delete the files and run the test once: it writes them and fails,
// asking for review.
func TestViewGolden(t *testing.T) {
	nw := bench.MustBuild("ctrl")
	for _, k := range []int{2, 3} {
		res, err := Synthesize(nw, Options{Method: labeling.MethodHeuristic, Layers: k})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		v := res.View()
		v.SynthMillis, v.Labeling.Millis = 0, 0
		for i := range v.Labeling.Engines {
			v.Labeling.Engines[i].Millis = 0
		}
		got, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		file := fmt.Sprintf("testdata/view/ctrl_heuristic_k%d.json", k)
		want, err := os.ReadFile(file)
		if os.IsNotExist(err) {
			if err := os.WriteFile(file, got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Errorf("wrote %s; review and commit it", file)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("K=%d: view body differs from %s\ngot:  %s", k, file, got)
		}
	}
}

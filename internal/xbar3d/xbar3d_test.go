package xbar3d

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"compact/internal/bdd"
	"compact/internal/defect"
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/xbar"
)

func fig2Network() *logic.Network {
	b := logic.NewBuilder("fig2")
	a, bb, c := b.Input("a"), b.Input("b"), b.Input("c")
	b.Output("f", b.Or(b.And(a, bb), c))
	return b.Build()
}

// randomNetwork builds a random combinational network (mirrors xbar's
// test helper).
func randomNetwork(rng *rand.Rand, nIn, nGates int) *logic.Network {
	b := logic.NewBuilder("rand")
	var pool []int
	for i := 0; i < nIn; i++ {
		pool = append(pool, b.Input(string(rune('a'+i))))
	}
	for g := 0; g < nGates; g++ {
		pick := func() int { return pool[rng.Intn(len(pool))] }
		var id int
		switch rng.Intn(6) {
		case 0:
			id = b.And(pick(), pick())
		case 1:
			id = b.Or(pick(), pick())
		case 2:
			id = b.Not(pick())
		case 3:
			id = b.Xor(pick(), pick())
		case 4:
			id = b.Nand(pick(), pick())
		default:
			id = b.Mux(pick(), pick(), pick())
		}
		pool = append(pool, id)
	}
	b.Output("f", pool[len(pool)-1])
	b.Output("g", pool[len(pool)-2])
	return b.Build()
}

// synth3 runs the layered pipeline with natural variable order:
// BDD -> graph -> K-labeling -> Map3D.
func synth3(t *testing.T, nw *logic.Network, k int) (*Design3D, *xbar.BDDGraph) {
	t.Helper()
	m, roots, err := bdd.BuildNetwork(nw, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := xbar.FromBDD(m, roots, nw.OutputNames)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := labeling.SolveK(context.Background(), bg.Problem(true), k, labeling.Options{
		Method: labeling.MethodHeuristic, Gamma: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Map3D(bg, sol)
	if err != nil {
		t.Fatal(err)
	}
	return d, bg
}

// TestMap3DAtK2MatchesLifted2D pins Map3D at K=2 to xbar.Map: the same
// widths, planes and ports.
func TestMap3DAtK2MatchesLifted2D(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		nw := randomNetwork(rng, 5, 14)
		m, roots, err := bdd.BuildNetwork(nw, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		bg, err := xbar.FromBDD(m, roots, nw.OutputNames)
		if err != nil {
			t.Fatal(err)
		}
		sol2, err := labeling.SolveContext(context.Background(), bg.Problem(true), labeling.Options{Method: labeling.MethodHeuristic, Gamma: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		d2, err := xbar.Map(bg, sol2.Labels)
		if err != nil {
			t.Fatal(err)
		}
		d3, _ := synth3(t, nw, 2)
		if !reflect.DeepEqual(d3.Widths, d2.Widths) || d3.Rows != d2.Rows || d3.Cols != d2.Cols {
			t.Fatalf("trial %d: widths %v vs 2D %v", trial, d3.Widths, d2.Widths)
		}
		if !reflect.DeepEqual(d3.Planes, d2.Planes) {
			t.Fatalf("trial %d: K=2 cells differ from the 2D design", trial)
		}
		if d3.Input != d2.Input || !reflect.DeepEqual(d3.Outputs, d2.Outputs) {
			t.Fatalf("trial %d: ports differ: %+v/%v vs %+v/%v",
				trial, d3.Input, d3.Outputs, d2.Input, d2.Outputs)
		}
	}
}

func TestMap3DVerifiesAcrossK(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		nw := randomNetwork(rng, 5, 16)
		for k := 2; k <= 4; k++ {
			d, _ := synth3(t, nw, k)
			if bad := d.VerifyAgainst(nw.Eval, nw.NumInputs(), 12, 0, 1); bad != nil {
				t.Fatalf("trial %d K=%d: mismatch on %v", trial, k, bad)
			}
			if bad := d.VerifyAgainst64(nw.Eval64, nw.NumInputs(), 12, 0, 1); bad != nil {
				t.Fatalf("trial %d K=%d: word-parallel mismatch on %v", trial, k, bad)
			}
		}
	}
}

func TestFormalVerify3D(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5; trial++ {
		nw := randomNetwork(rng, 5, 14)
		for k := 2; k <= 4; k++ {
			d, _ := synth3(t, nw, k)
			remap := make([]int, nw.NumInputs())
			for i := range remap {
				remap[i] = i
			}
			if err := d.RemapVars(remap, nw.InputNames()); err != nil {
				t.Fatal(err)
			}
			if err := FormalVerify3D(d, nw, 0); err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
		}
	}
}

func TestFormalVerify3DCatchesFaults(t *testing.T) {
	nw := fig2Network()
	d, _ := synth3(t, nw, 3)
	remap := []int{0, 1, 2}
	if err := d.RemapVars(remap, nw.InputNames()); err != nil {
		t.Fatal(err)
	}
	if err := FormalVerify3D(d, nw, 0); err != nil {
		t.Fatal(err)
	}
	// Flip one literal: the proof must fail.
	flipped := false
	for dl := range d.Planes {
		for r := 0; r < d.Planes[dl].Rows() && !flipped; r++ {
			_, es := d.Planes[dl].Row(r)
			for i := range es {
				if es[i].Kind == xbar.Lit && !flipped {
					es[i].Neg = !es[i].Neg
					flipped = true
				}
			}
		}
	}
	if !flipped {
		t.Fatal("no literal cell to corrupt")
	}
	d = d.Clone() // drop the wire graph compiled before the flip
	if err := FormalVerify3D(d, nw, 0); err == nil {
		t.Fatal("corrupted design passed formal verification")
	}
}

func TestEval64MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 6; trial++ {
		nw := randomNetwork(rng, 6, 18)
		for k := 2; k <= 4; k++ {
			d, _ := synth3(t, nw, k)
			n := d.NumVars()
			total := 1 << uint(n)
			for base := 0; base < total; base += 64 {
				words := make([]uint64, n)
				for b := 0; b < 64 && base+b < total; b++ {
					for i := 0; i < n; i++ {
						if (base+b)&(1<<uint(i)) != 0 {
							words[i] |= 1 << uint(b)
						}
					}
				}
				got, err := d.Eval64Checked(words)
				if err != nil {
					t.Fatal(err)
				}
				for b := 0; b < 64 && base+b < total; b++ {
					in := make([]bool, n)
					for i := range in {
						in[i] = (base+b)&(1<<uint(i)) != 0
					}
					want, err := d.EvalChecked(in)
					if err != nil {
						t.Fatal(err)
					}
					for o := range want {
						if want[o] != (got[o]>>uint(b)&1 == 1) {
							t.Fatalf("trial %d K=%d assignment %v output %d: scalar %v, word %v",
								trial, k, in, o, want[o], !want[o])
						}
					}
				}
			}
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	nw := fig2Network()
	for k := 2; k <= 4; k++ {
		d, _ := synth3(t, nw, k)
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var back Design3D
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if !reflect.DeepEqual(back.Widths, d.Widths) || !reflect.DeepEqual(back.Planes, d.Planes) {
			t.Fatalf("K=%d: round trip changed the design", k)
		}
		if back.Input != d.Input || !reflect.DeepEqual(back.Outputs, d.Outputs) {
			t.Fatalf("K=%d: round trip changed the ports", k)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(data) {
			t.Fatalf("K=%d: re-encode not byte-stable", k)
		}
		// Decoded designs evaluate.
		if bad := back.VerifyAgainst(nw.Eval, nw.NumInputs(), 10, 0, 1); bad != nil {
			t.Fatalf("K=%d: decoded design mismatches on %v", k, bad)
		}
	}
}

func TestJSONRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"version":        `{"v":9,"widths":[2,2],"input":{"l":0,"i":0},"outputs":[],"cells":[]}`,
		"one layer":      `{"v":1,"widths":[4],"input":{"l":0,"i":0},"outputs":[],"cells":[]}`,
		"layer flood":    `{"v":1,"widths":[1,1,1,1,1,1,1,1,1,1],"input":{"l":0,"i":0},"outputs":[],"cells":[]}`,
		"width bomb":     `{"v":1,"widths":[2147483647,2],"input":{"l":0,"i":0},"outputs":[],"cells":[]}`,
		"cell bomb":      `{"v":1,"widths":[65536,65536,65536],"input":{"l":0,"i":0},"outputs":[],"cells":[]}`,
		"stack bomb":     `{"v":1,"widths":[65536,32768,65536],"input":{"l":0,"i":0},"outputs":[],"cells":[]}`,
		"negative width": `{"v":1,"widths":[-1,2],"input":{"l":0,"i":0},"outputs":[],"cells":[]}`,
		"bad input":      `{"v":1,"widths":[2,2],"input":{"l":0,"i":5},"outputs":[],"cells":[]}`,
		"bad output":     `{"v":1,"widths":[2,2],"input":{"l":0,"i":0},"outputs":[{"l":7,"i":0}],"cells":[]}`,
		"bad plane":      `{"v":1,"widths":[2,2],"input":{"l":0,"i":0},"outputs":[],"cells":[{"d":3,"r":0,"c":0,"k":"on"}]}`,
		"bad coord":      `{"v":1,"widths":[2,2],"input":{"l":0,"i":0},"outputs":[],"cells":[{"d":0,"r":9,"c":0,"k":"on"}]}`,
		"dup cell":       `{"v":1,"widths":[2,2],"input":{"l":0,"i":0},"outputs":[],"cells":[{"d":0,"r":0,"c":0,"k":"on"},{"d":0,"r":0,"c":0,"k":"on"}]}`,
		"bad kind":       `{"v":1,"widths":[2,2],"input":{"l":0,"i":0},"outputs":[],"cells":[{"d":0,"r":0,"c":0,"k":"maybe"}]}`,
		"neg var":        `{"v":1,"widths":[2,2],"input":{"l":0,"i":0},"outputs":[],"cells":[{"d":0,"r":0,"c":0,"k":"lit","var":-4}]}`,
		"var range":      `{"v":1,"widths":[2,2],"input":{"l":0,"i":0},"outputs":[],"var_names":["a"],"cells":[{"d":0,"r":0,"c":0,"k":"lit","var":3}]}`,
		"name count":     `{"v":1,"widths":[2,2],"input":{"l":0,"i":0},"outputs":[],"output_names":["f"],"cells":[]}`,
	}
	for name, data := range cases {
		var d Design3D
		if err := json.Unmarshal([]byte(data), &d); err == nil {
			t.Errorf("%s: malformed design accepted", name)
		}
	}
}

// tiny2Layer is a hand-built f = x0 stack: input wire (0,1) reaches wire
// (1,0) through an On via, then the output wire (0,0) through a literal.
func tiny2Layer(t *testing.T) *Design3D {
	t.Helper()
	d, err := xbar.NewDesign([]int{2, 2}, []xbar.Device{
		{Row: 0, Col: 0, E: xbar.Entry{Kind: xbar.Lit, Var: 0}},
		{Row: 1, Col: 0, E: xbar.Entry{Kind: xbar.On}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Input = xbar.WireRef{Layer: 0, Index: 1}
	d.Outputs = []xbar.WireRef{{Layer: 0, Index: 0}}
	d.OutputNames = []string{"f"}
	d.VarNames = []string{"a"}
	return d
}

// placeFirst returns the first placement of d's stream onto maps.
func placeFirst(d *xbar.Design, maps []*defect.Map, seed uint64) (*xbar.Placement, error) {
	p, err := xbar.NewPlacer(d.Stack(maps), seed)
	if err != nil {
		return nil, err
	}
	return p.Next(context.Background(), true)
}

func TestPlace3DAroundStuckDevice(t *testing.T) {
	d := tiny2Layer(t)
	dm, err := defect.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := dm.Set(0, 0, defect.StuckOn); err != nil {
		t.Fatal(err)
	}
	maps := []*defect.Map{dm}
	pl, err := placeFirst(d, maps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Engine != "greedy" {
		t.Fatalf("engine %q, want greedy (identity is incompatible)", pl.Engine)
	}
	eff, err := d.UnderDefects(maps, pl)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range [][]bool{{false}, {true}} {
		want, err := d.EvalChecked(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eff.EvalChecked(a)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("placed array computes %v on %v, want %v", got, a, want)
		}
	}
}

func TestPlace3DIdentityWhenClean(t *testing.T) {
	d := tiny2Layer(t)
	dm, err := defect.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := placeFirst(d, []*defect.Map{dm}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Engine != "identity" {
		t.Fatalf("engine %q, want identity", pl.Engine)
	}
}

func TestPlace3DUnplaceableIsTyped(t *testing.T) {
	d := tiny2Layer(t)
	dm, err := defect.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			if err := dm.Set(r, c, defect.StuckOn); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, err = placeFirst(d, []*defect.Map{dm}, 0)
	if up, ok := err.(*Unplaceable3D); !ok || !up.Proven {
		t.Fatalf("error %v is not a proven *Unplaceable3D", err)
	}
}

func TestPhysWidthsRejectsInconsistentStack(t *testing.T) {
	nw := fig2Network()
	d, _ := synth3(t, nw, 3)
	maps := make([]*defect.Map, 2)
	var err error
	if maps[0], err = defect.New(d.Widths[0], d.Widths[1]); err != nil {
		t.Fatal(err)
	}
	// Plane 1's row count disagrees with plane 0's column count.
	if maps[1], err = defect.New(d.Widths[1]+3, d.Widths[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := placeFirst(d, maps, 0); err == nil {
		t.Fatal("inconsistent stack accepted")
	}
	if _, err := d.UnderDefects(maps, nil); err == nil {
		t.Fatal("inconsistent stack accepted by UnderDefects3D")
	}
}

func TestEvalCheckedRejectsCorruption(t *testing.T) {
	d := tiny2Layer(t)
	_, es := d.Planes[0].Row(0) // the literal at (0, 0)
	es[0] = xbar.Entry{Kind: xbar.Lit, Var: -2}
	if _, err := d.Clone().EvalChecked([]bool{true}); err == nil {
		t.Fatal("negative-var cell evaluated")
	}
	es[0] = xbar.Entry{Kind: 7}
	if _, err := d.Clone().Eval64Checked([]uint64{0}); err == nil {
		t.Fatal("unknown-kind cell evaluated")
	}
	d = tiny2Layer(t)
	if _, err := d.EvalChecked(nil); err == nil {
		t.Fatal("short assignment accepted")
	}
}

func TestStats3D(t *testing.T) {
	nw := fig2Network()
	d, _ := synth3(t, nw, 3)
	st := d.Stats()
	if st.K != 3 || len(st.Widths) != 3 {
		t.Fatalf("stats K/widths wrong: %+v", st)
	}
	if st.S != st.Rows+st.Cols {
		t.Fatalf("S %d != R+C %d", st.S, st.Rows+st.Cols)
	}
	wantArea := d.Widths[0]*d.Widths[1] + d.Widths[1]*d.Widths[2]
	if st.Area != wantArea {
		t.Fatalf("area %d, want %d", st.Area, wantArea)
	}
	if st.Power != st.LitCells || st.Delay != st.Rows+1 {
		t.Fatalf("power/delay proxies wrong: %+v", st)
	}
}

// TestDecodeEmptyDesign3DAllocatesSparsely decodes an empty 8192 x 8192
// two-layer stack: its plane holds devices, not crossings, so the decode
// allocates O(wires), not one Entry per crossing (512 MB as a dense grid).
func TestDecodeEmptyDesign3DAllocatesSparsely(t *testing.T) {
	body := []byte(`{"v":1,"widths":[8192,8192],"input":{"l":0,"i":0},"outputs":[{"l":0,"i":0}]}`)
	var d Design3D
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Fatalf("decoding an empty 8192x8192 stack allocated %d bytes", got)
	}
	if len(d.Planes) != 1 || d.Planes[0].Rows() != 8192 || d.Planes[0].Cols() != 8192 || d.Planes[0].Len() != 0 {
		t.Fatalf("decoded widths %v with %d planes", d.Widths, len(d.Planes))
	}
}

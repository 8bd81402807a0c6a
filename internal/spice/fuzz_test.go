package spice

import (
	"math"
	"testing"

	"compact/internal/xbar"
	"compact/internal/xbar3d"
)

// FuzzDenseVsCG is the solver cross-check property: on any valid randomly
// programmed crossbar, the direct dense solve and the Jacobi-preconditioned
// conjugate-gradient solve must agree on every node voltage to within a
// relative tolerance. On nominal devices it also checks that the design
// and its lifted 2-layer stack assemble the same nodal system. The design, the assignment and the per-device
// resistance spread are all derived deterministically from the fuzz inputs
// via splitmix64, so every corpus entry replays bit-identically.
func FuzzDenseVsCG(f *testing.F) {
	f.Add(uint64(1), uint64(0))
	f.Add(uint64(42), uint64(7))
	f.Add(uint64(0xdeadbeef), uint64(3))
	f.Add(uint64(12345), uint64(0xffffffffffffffff))
	f.Fuzz(func(t *testing.T, seed, spread uint64) {
		state := seed
		rows := 2 + int(splitmix64(&state)%9)  // 2..10
		cols := 1 + int(splitmix64(&state)%10) // 1..10
		nVars := 1 + int(splitmix64(&state)%4) // 1..4

		var devs []xbar.Device
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				switch splitmix64(&state) % 4 {
				case 0:
					devs = append(devs, xbar.Device{Row: r, Col: c, E: xbar.Entry{Kind: xbar.On}})
				case 1:
					devs = append(devs, xbar.Device{Row: r, Col: c, E: xbar.Entry{
						Kind: xbar.Lit,
						Var:  int32(splitmix64(&state) % uint64(nVars)),
						Neg:  splitmix64(&state)%2 == 0,
					}})
				default:
					// Off twice as likely: sparse arrays are the common case.
				}
			}
		}
		d, err := xbar.NewDesign(rows, cols, devs)
		if err != nil {
			t.Fatal(err)
		}
		d.InputRow = int(splitmix64(&state) % uint64(rows))
		out := int(splitmix64(&state) % uint64(rows))
		if out == d.InputRow {
			out = (out + 1) % rows
		}
		d.OutputRows = []int{out}
		d.OutputNames = []string{"f"}
		d.VarNames = make([]string, nVars)
		for i := range d.VarNames {
			d.VarNames[i] = string(rune('a' + i))
		}
		assign := make([]bool, nVars)
		for i := range assign {
			assign[i] = splitmix64(&state)%2 == 0
		}

		// Half the runs exercise the per-device resistance path, with sigma
		// bounded so the system stays numerically reasonable.
		var env Env
		env.Model = Default()
		if spread%2 == 1 {
			sigma := 0.05 + float64(spread%16)/16
			res, err := SampleResistances(rows, cols, env.Model, Variation{SigmaOn: sigma, SigmaOff: sigma}, spread)
			if err != nil {
				t.Fatal(err)
			}
			env.Res = res
		}

		nw, err := compile(d, env)
		if err != nil {
			t.Fatal(err)
		}
		g1, b1 := nw.system(assign, nil)
		g2, b2 := nw.system(assign, nil)
		if env.Res == nil {
			// The lifted 2-layer stack is the same network: its assembly
			// must match the 2D one bit for bit.
			d3, err := xbar3d.Lift3D(d)
			if err != nil {
				t.Fatal(err)
			}
			nw3, err := compile3(d3, env.Model)
			if err != nil {
				t.Fatal(err)
			}
			g3, b3 := nw3.system(assign, nil)
			for i := range g1 {
				if math.Float64bits(b1[i]) != math.Float64bits(b3[i]) {
					t.Fatalf("node %d: 2D current %v vs lifted %v", i, b1[i], b3[i])
				}
				for j := range g1[i] {
					if math.Float64bits(g1[i][j]) != math.Float64bits(g3[i][j]) {
						t.Fatalf("G[%d][%d]: 2D %v vs lifted %v", i, j, g1[i][j], g3[i][j])
					}
				}
			}
		}
		x1, err := solveDense(g1, b1)
		if err != nil {
			t.Fatal(err)
		}
		x2, err := solveCG(g2, b2)
		if err != nil {
			t.Fatal(err)
		}
		if len(x1) != len(x2) {
			t.Fatalf("solution lengths differ: dense %d, cg %d", len(x1), len(x2))
		}
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-6*(1+math.Abs(x1[i])) {
				t.Errorf("node %d: dense %v vs CG %v (seed=%d spread=%d)", i, x1[i], x2[i], seed, spread)
			}
		}
	})
}

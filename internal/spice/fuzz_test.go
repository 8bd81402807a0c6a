package spice

import (
	"testing"

	"compact/internal/defect"
	"compact/internal/xbar"
)

// FuzzNodalVsDense is the solver cross-check property: on any valid
// randomly programmed crossbar, the bipartite Schur-complement solve and
// the dense-elimination oracle must agree on every node voltage. seed%4
// picks the shape: a clean 2D array, a 2D design placed on a larger
// defective array (stuck-ON bridges to spare lines, stuck overrides on used
// crossings, a random placement), or a K=3 or K=4 stack — clean, or (on
// odd seed/4) placed at random on a physical stack with spare wires on
// every layer and a dense fault map per plane, so bridges chain across
// planes. An odd spread adds a per-device resistance draw. The design, the array, the assignment
// and the draw all derive from the fuzz inputs via splitmix64, so every
// corpus entry replays bit-identically.
func FuzzNodalVsDense(f *testing.F) {
	f.Add(uint64(1), uint64(0))
	f.Add(uint64(42), uint64(7))
	f.Add(uint64(0xdeadbeef), uint64(3))
	f.Add(uint64(12345), uint64(0xffffffffffffffff))
	for seed := uint64(100); seed < 108; seed++ {
		f.Add(seed, seed*0x9e3779b97f4a7c15|seed&1)
	}
	f.Fuzz(func(t *testing.T, seed, spread uint64) {
		state := seed
		nVars := 1 + int(splitmix64(&state)%4) // 1..4
		var widths []int
		switch seed % 4 {
		case 0, 1:
			widths = []int{2 + int(splitmix64(&state)%9), 1 + int(splitmix64(&state)%10)} // 2..10 x 1..10
		case 2:
			widths = []int{2 + int(splitmix64(&state)%5), 1 + int(splitmix64(&state)%6), 1 + int(splitmix64(&state)%6)}
		default:
			widths = []int{2 + int(splitmix64(&state)%5), 1 + int(splitmix64(&state)%6), 1 + int(splitmix64(&state)%6), 1 + int(splitmix64(&state)%6)}
		}
		planes := make([][]xbar.Device, len(widths)-1)
		for p := range planes {
			for r := 0; r < widths[p]; r++ {
				for c := 0; c < widths[p+1]; c++ {
					switch splitmix64(&state) % 4 {
					case 0:
						planes[p] = append(planes[p], xbar.Device{Row: r, Col: c, E: xbar.Entry{Kind: xbar.On}})
					case 1:
						planes[p] = append(planes[p], xbar.Device{Row: r, Col: c, E: xbar.Entry{
							Kind: xbar.Lit,
							Var:  int32(splitmix64(&state) % uint64(nVars)),
							Neg:  splitmix64(&state)%2 == 0,
						}})
					default:
						// Off twice as likely: sparse arrays are the common case.
					}
				}
			}
		}
		d, err := xbar.NewDesign(widths, planes...)
		if err != nil {
			t.Fatal(err)
		}
		rows := widths[0]
		d.Input = xbar.WireRef{Index: int(splitmix64(&state) % uint64(rows))}
		out := int(splitmix64(&state) % uint64(rows))
		if out == d.Input.Index {
			out = (out + 1) % rows
		}
		d.Outputs = []xbar.WireRef{{Index: out}}
		if len(widths) > 2 {
			// A second output on layer 2: a stack senses folded wordlines.
			d.Outputs = append(d.Outputs, xbar.WireRef{Layer: 2, Index: int(splitmix64(&state) % uint64(widths[2]))})
		}
		for i := range d.Outputs {
			d.OutputNames = append(d.OutputNames, string(rune('f'+i)))
		}
		d.VarNames = make([]string, nVars)
		for i := range d.VarNames {
			d.VarNames[i] = string(rune('a' + i))
		}
		assign := make([]bool, nVars)
		for i := range assign {
			assign[i] = splitmix64(&state)%2 == 0
		}

		env := Env{Model: Default()}
		if seed%4 == 1 || (seed%4 >= 2 && seed/4%2 == 1) {
			// A larger array with spare wires, a random placement and a
			// dense fault map per plane, so stuck-ON devices bridge spares
			// in.
			phys := make([]int, len(widths))
			env.Placement = &xbar.Placement{Perms: make([][]int, len(widths))}
			for l, w := range widths {
				phys[l] = w + int(splitmix64(&state)%4)
				env.Placement.Perms[l] = randomInjection(&state, w, phys[l])
			}
			for p := range planes {
				dm, err := defect.Generate(phys[p], phys[p+1], 0.25, 0.75, splitmix64(&state))
				if err != nil {
					t.Fatal(err)
				}
				env.Defects = append(env.Defects, dm)
			}
		}
		nw, err := compile(d, env)
		if err != nil {
			t.Fatal(err)
		}
		// Half the runs draw per-device resistances, with sigma bounded so
		// the system stays numerically reasonable: one map per plane over
		// its physical extent.
		var res []*ResistanceMap
		if spread%2 == 1 {
			v := Variation{SigmaOn: 0.05 + float64(spread%16)/16, SigmaOff: 0.05 + float64(spread%16)/16}
			if res, err = nw.sample(v, spread); err != nil {
				t.Fatal(err)
			}
		}
		checkNodalMatchesDense(t, "fuzz", nw, assign, res)
	})
}

// randomInjection draws n distinct lines out of bound.
func randomInjection(state *uint64, n, bound int) []int {
	perm := identityPerm(bound)
	for i := 0; i < n; i++ {
		j := i + int(splitmix64(state)%uint64(bound-i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:n]
}

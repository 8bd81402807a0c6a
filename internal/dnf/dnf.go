// Package dnf implements the early flow-based mapping style that COMPACT's
// introduction cites as motivation (references [7] and [11] of the paper):
// a Boolean function in disjunctive normal form is realized cube by cube,
// each product term becoming a private conducting chain from the input
// wordline to the output wordline through alternating bitlines and
// wordlines. Nothing is shared between cubes, which is why these designs
// are much larger than BDD-based ones — the comparison COMPACT improves on.
package dnf

import (
	"fmt"

	"compact/internal/logic"
	"compact/internal/pla"
	"compact/internal/xbar"
)

// Map builds a crossbar for a multi-output SOP cover. Layout: output
// wordlines on top (one per output), cube chain wordlines in the middle,
// and the input wordline at the bottom, matching the alignment convention
// of the rest of the repository.
func Map(t *pla.Table) (*xbar.Design, error) {
	if t.NumIn == 0 {
		return nil, fmt.Errorf("dnf: cover with no inputs")
	}
	// Plan each output's chains first to learn the dimensions.
	type chain struct {
		out  int
		lits []xbar.Entry // devices along the chain, length made even
	}
	var chains []chain
	for o := 0; o < t.NumOut; o++ {
		for _, c := range t.Cubes {
			if c.Out[o] != '1' {
				continue
			}
			var lits []xbar.Entry
			for i := 0; i < t.NumIn; i++ {
				switch c.In[i] {
				case '1':
					lits = append(lits, xbar.Entry{Kind: xbar.Lit, Var: int32(i)})
				case '0':
					lits = append(lits, xbar.Entry{Kind: xbar.Lit, Var: int32(i), Neg: true})
				}
			}
			if len(lits) == 0 {
				// Tautological cube: a pair of always-on devices.
				lits = []xbar.Entry{{Kind: xbar.On}}
			}
			if len(lits)%2 == 1 {
				// A chain from a wordline to a wordline crosses an even
				// number of devices; pad with an always-on one.
				lits = append(lits, xbar.Entry{Kind: xbar.On})
			}
			chains = append(chains, chain{out: o, lits: lits})
		}
	}

	rows := t.NumOut + 1 // outputs + input row
	cols := 0
	for _, c := range chains {
		m := len(c.lits) / 2
		rows += m - 1 // intermediate wordlines
		cols += m     // private bitlines
	}
	if cols == 0 {
		cols = 1
	}
	// Cube-chain designs explode quadratically with the cover; cap the
	// crossing count (this baseline's unscalability is, after all, the
	// point being demonstrated, and a design's dense consumers — Render,
	// spice — allocate per crossing).
	if int64(rows)*int64(cols) > 600_000_000 {
		return nil, fmt.Errorf("dnf: design would need %d x %d cells; the cube-chain style does not scale to this cover", rows, cols)
	}
	inputRow := rows - 1
	names := t.InNames
	if len(names) != t.NumIn {
		names = make([]string, t.NumIn)
		for i := range names {
			names[i] = fmt.Sprintf("i%d", i)
		}
	}
	var devs []xbar.Device
	nextRow := t.NumOut // first free interior wordline
	nextCol := 0
	for _, c := range chains {
		// Walk input row -> col -> row -> ... -> col -> output row.
		curRow := inputRow
		for k := 0; k < len(c.lits); k += 2 {
			col := nextCol
			nextCol++
			devs = append(devs, xbar.Device{Row: curRow, Col: col, E: c.lits[k]})
			if k+2 < len(c.lits) {
				curRow = nextRow
				nextRow++
			} else {
				curRow = c.out
			}
			devs = append(devs, xbar.Device{Row: curRow, Col: col, E: c.lits[k+1]})
		}
	}
	// Chains are private, so no crossing is programmed twice; NewDesign
	// still rejects a second device on one.
	d, err := xbar.NewDesign([]int{rows, cols}, devs)
	if err != nil {
		return nil, fmt.Errorf("dnf: %w", err)
	}
	d.Input = xbar.WireRef{Index: inputRow}
	d.VarNames = names
	for o := 0; o < t.NumOut; o++ {
		d.Outputs = append(d.Outputs, xbar.WireRef{Index: o})
		name := fmt.Sprintf("o%d", o)
		if o < len(t.OutNames) {
			name = t.OutNames[o]
		}
		d.OutputNames = append(d.OutputNames, name)
	}
	return d, nil
}

// MapNetwork derives the minterm cover of a small network by truth-table
// enumeration (via pla.FromNetwork) and maps it. This mirrors how the
// early DNF-based tools scaled — or rather, did not: the design grows with
// the on-set size, not the BDD size.
func MapNetwork(nw *logic.Network, maxInputs int) (*xbar.Design, error) {
	t, err := pla.FromNetwork(nw, maxInputs)
	if err != nil {
		return nil, fmt.Errorf("dnf: %w", err)
	}
	return Map(t)
}

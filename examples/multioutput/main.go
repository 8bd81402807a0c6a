// Multi-output synthesis: a 4-bit ripple-carry adder mapped two ways —
// one shared BDD (SBDD) versus per-output ROBDDs merged by the 1-terminal —
// demonstrating the sharing win of the paper's Section VII and the
// alignment of all five sum outputs onto wordlines.
package main

import (
	"fmt"
	"os"

	"compact/internal/core"
	"compact/internal/labeling"
	"compact/internal/logic"
)

func main() {
	const width = 4
	b := logic.NewBuilder("adder4")
	xs := b.Inputs("x", width)
	ys := b.Inputs("y", width)
	sums, cout := b.AddRippleAdder(xs, ys, b.Const0())
	for i, s := range sums {
		b.Output(fmt.Sprintf("s%d", i), s)
	}
	b.Output("cout", cout)
	nw := b.Build()
	fmt.Println(nw)

	for _, kind := range []core.BDDKind{core.SeparateROBDDs, core.SBDD} {
		res, err := core.Synthesize(nw, core.Options{
			BDDKind: kind,
			Method:  labeling.MethodMIP,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		st := res.Stats()
		fmt.Printf("\n%-7s: %3d BDD nodes -> %2dx%-2d crossbar, S=%d, D=%d (labeling %s, optimal=%v)\n",
			kind, res.BDDNodes, st.Rows, st.Cols, st.S, st.D, res.Labeling.Method, res.Labeling.Optimal)

		// Every output must sit on its own sensed wordline.
		for i, o := range res.Design.Outputs {
			fmt.Printf("  output %-5s -> wordline %d\n", res.Design.OutputNames[i], o.Index)
		}
		if err := res.Verify(8, 0, 1); err != nil {
			fmt.Fprintln(os.Stderr, "validation failed:", err)
			os.Exit(1)
		}
	}
	fmt.Println("\nboth designs validate; the SBDD one is smaller because the")
	fmt.Println("carry chain is shared across all five outputs instead of")
	fmt.Println("being replicated per output.")
}

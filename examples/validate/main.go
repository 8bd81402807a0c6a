// Electrical validation: synthesize the ctrl benchmark, then check the
// design twice — logically (sneak-path reachability against the network)
// and electrically (SPICE-lite nodal analysis measuring worst-case output
// voltages), mirroring the paper's SPICE verification of Section VIII.
package main

import (
	"context"
	"fmt"
	"os"

	"compact/internal/bench"
	"compact/internal/core"
	"compact/internal/labeling"
	"compact/internal/spice"
)

func main() {
	nw := bench.MustBuild("ctrl")
	fmt.Println(nw)

	res, err := core.Synthesize(nw, core.Options{Method: labeling.MethodMIP})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	st := res.Stats()
	fmt.Printf("crossbar: %dx%d, %d literal devices, delay %d steps\n",
		st.Rows, st.Cols, st.LitCells, st.Delay)

	// Logical check: exhaustive over the 2^7 input vectors.
	if err := res.Verify(7, 0, 1); err != nil {
		fmt.Fprintln(os.Stderr, "logical validation failed:", err)
		os.Exit(1)
	}
	fmt.Println("logical validation: OK (exhaustive, 128 vectors)")

	// Formal check: the symbolic sneak-path closure proves equivalence
	// over ALL assignments at once — no enumeration, works for any width.
	if err := res.FormalVerify(0); err != nil {
		fmt.Fprintln(os.Stderr, "formal verification failed:", err)
		os.Exit(1)
	}
	fmt.Println("formal verification: design ≡ network proven symbolically")

	// Electrical check: solve the resistive network per vector and report
	// the separation between the weakest 1 and the strongest 0 — for two
	// device models. At this array size (50x35) the textbook 10^3 on/off
	// ratio drowns the signal in aggregate sneak-path leakage; the
	// high-contrast HfO2-class model restores a clean margin. This is the
	// real sneak-path sizing concern flow-based computing papers discuss.
	for _, m := range []struct {
		name  string
		model spice.DeviceModel
	}{
		{"default (Roff/Ron = 10^3)", spice.Default()},
		{"high-contrast (Roff/Ron = 10^5)", spice.HighContrast()},
	} {
		rep, err := spice.MarginContext(context.Background(), res.Design, nw.Eval, nw.NumInputs(), 7, 0,
			spice.Env{Model: m.model}, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\n%s, %d vectors:\n", m.name, rep.Checked)
		fmt.Printf("  weakest  logic-1 output: %.5f V\n", rep.MinOn)
		fmt.Printf("  strongest logic-0 output: %.5f V\n", rep.MaxOff)
		if rep.Separable {
			fmt.Printf("  separable: any threshold near %.5f V reads correctly\n", (rep.MinOn+rep.MaxOff)/2)
		} else {
			fmt.Printf("  NOT separable at this array size — higher-contrast devices needed\n")
		}
	}
}

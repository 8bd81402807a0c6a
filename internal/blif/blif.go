// Package blif reads and writes combinational circuits in the Berkeley
// Logic Interchange Format (BLIF). Only the combinational subset used by
// synthesis benchmarks is supported: .model, .inputs, .outputs, .names
// (with sum-of-products covers over {0,1,-}), and .end. Latches and
// subcircuits are rejected with a descriptive error.
package blif

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"compact/internal/errio"
	"compact/internal/logic"
)

// names is one .names block: a single-output SOP cover.
type namesBlock struct {
	inputs []string
	output string
	cubes  []cube
	line   int
}

// cube is one row of a cover: input part over '0','1','-' plus output value.
type cube struct {
	in  string
	out byte // '0' or '1'
}

// Parse reads a BLIF model from r and converts it into a logic.Network.
// Signals are resolved in dependency order, so .names blocks may appear in
// any order. Covers with output value '0' (off-set covers) are complemented.
func Parse(r io.Reader) (*logic.Network, error) {
	sc := bufio.NewScanner(r)
	// The buffer starts small and grows with the longest line, up to the
	// 64 MiB token cap.
	sc.Buffer(nil, 64*1024*1024)

	var model string
	var inputs, outputs []string
	blocks := make(map[string]*namesBlock) // by output signal
	var order []string                     // declaration order of block outputs

	var cur *namesBlock
	lineNo := 0
	var pending string // for '\' line continuation

	flush := func() error {
		if cur == nil {
			return nil
		}
		if prev, dup := blocks[cur.output]; dup {
			return fmt.Errorf("line %d: signal %q defined twice (first at line %d)", cur.line, cur.output, prev.line)
		}
		blocks[cur.output] = cur
		order = append(order, cur.output)
		cur = nil
		return nil
	}

	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, "\\") {
			pending += strings.TrimSuffix(line, "\\") + " "
			continue
		}
		if pending != "" {
			line = pending + line
			pending = ""
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case ".model":
			if len(fields) >= 2 {
				model = fields[1]
			}
		case ".inputs":
			inputs = append(inputs, fields[1:]...)
		case ".outputs":
			outputs = append(outputs, fields[1:]...)
		case ".names":
			if err := flush(); err != nil {
				return nil, err
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: .names needs at least an output", lineNo)
			}
			cur = &namesBlock{
				inputs: fields[1 : len(fields)-1],
				output: fields[len(fields)-1],
				line:   lineNo,
			}
		case ".end":
			if err := flush(); err != nil {
				return nil, err
			}
		case ".latch", ".subckt", ".gate", ".mlatch":
			return nil, fmt.Errorf("line %d: unsupported BLIF construct %s (combinational subset only)", lineNo, fields[0])
		case ".exdc", ".wire_load_slope", ".default_input_arrival":
			// Ignored extensions.
		default:
			if strings.HasPrefix(fields[0], ".") {
				// Unknown dot-directive: ignore for robustness.
				continue
			}
			if cur == nil {
				return nil, fmt.Errorf("line %d: cube outside .names block", lineNo)
			}
			c, err := parseCube(fields, len(cur.inputs), lineNo)
			if err != nil {
				return nil, err
			}
			cur.cubes = append(cur.cubes, c)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("blif: read: %w", err)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if model == "" {
		model = "blif"
	}
	if len(inputs) == 0 && len(blocks) == 0 {
		return nil, fmt.Errorf("blif: empty model")
	}
	return elaborate(model, inputs, outputs, blocks, order)
}

func parseCube(fields []string, nIn, line int) (cube, error) {
	var c cube
	switch {
	case nIn == 0 && len(fields) == 1:
		c.in, c.out = "", fields[0][0]
	case len(fields) == 2:
		c.in, c.out = fields[0], fields[1][0]
	default:
		return c, fmt.Errorf("line %d: malformed cube %v", line, fields)
	}
	if len(c.in) != nIn {
		return c, fmt.Errorf("line %d: cube %q has %d literals, want %d", line, c.in, len(c.in), nIn)
	}
	for _, ch := range c.in {
		if ch != '0' && ch != '1' && ch != '-' {
			return c, fmt.Errorf("line %d: bad cube character %q", line, ch)
		}
	}
	if c.out != '0' && c.out != '1' {
		return c, fmt.Errorf("line %d: bad cube output %q", line, c.out)
	}
	return c, nil
}

// elaborate resolves blocks into a Builder in dependency order.
func elaborate(model string, inputs, outputs []string, blocks map[string]*namesBlock, order []string) (*logic.Network, error) {
	b := logic.NewBuilder(model)
	ids := make(map[string]int)
	for _, in := range inputs {
		ids[in] = b.Input(in)
	}

	var build func(sig string, stack []string) (int, error)
	build = func(sig string, stack []string) (int, error) {
		if id, ok := ids[sig]; ok {
			return id, nil
		}
		for _, s := range stack {
			if s == sig {
				return 0, fmt.Errorf("blif: combinational cycle through %q", sig)
			}
		}
		blk, ok := blocks[sig]
		if !ok {
			return 0, fmt.Errorf("blif: undefined signal %q", sig)
		}
		stack = append(stack, sig)
		fan := make([]int, len(blk.inputs))
		for i, in := range blk.inputs {
			id, err := build(in, stack)
			if err != nil {
				return 0, err
			}
			fan[i] = id
		}
		id := buildCover(b, fan, blk)
		ids[sig] = id
		return id, nil
	}

	// Build every declared block (covers unused logic too, matching the
	// common expectation that all .names contribute to the node count),
	// outputs first so error messages reference reachable logic.
	for _, out := range outputs {
		if _, err := build(out, nil); err != nil {
			return nil, err
		}
	}
	for _, sig := range order {
		if _, err := build(sig, nil); err != nil {
			return nil, err
		}
	}
	for _, out := range outputs {
		b.Output(out, ids[out])
	}
	n := b.Build()
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("blif: %w", err)
	}
	return n, nil
}

// buildCover turns a SOP cover into gates: OR of AND terms. An off-set
// cover (all outputs '0') is built as the complement of the OR.
func buildCover(b *logic.Builder, fan []int, blk *namesBlock) int {
	if len(blk.cubes) == 0 {
		return b.Const0() // empty cover = constant 0
	}
	onset := blk.cubes[0].out == '1'
	var terms []int
	for _, c := range blk.cubes {
		var lits []int
		for i := 0; i < len(c.in); i++ {
			switch c.in[i] {
			case '1':
				lits = append(lits, fan[i])
			case '0':
				lits = append(lits, b.Not(fan[i]))
			}
		}
		terms = append(terms, b.And(lits...))
	}
	sum := b.Or(terms...)
	if !onset {
		return b.Not(sum)
	}
	return sum
}

// Write serializes a logic.Network as BLIF. Every non-input gate becomes a
// .names block with a generated signal name n<id>; primary outputs are
// emitted under their declared names via buffer blocks when necessary.
func Write(w io.Writer, n *logic.Network) error {
	bw := bufio.NewWriter(w)
	ew := errio.NewWriter(bw)
	ew.Printf(".model %s\n", sanitize(n.Name))
	ew.Printf(".inputs %s\n", strings.Join(n.InputNames(), " "))
	ew.Printf(".outputs %s\n", strings.Join(n.OutputNames, " "))

	sig := make([]string, len(n.Gates))
	inputNames := make(map[string]int)
	for _, id := range n.Inputs {
		sig[id] = n.Gates[id].Name
		inputNames[n.Gates[id].Name] = id
	}
	// An output may share an input's name only when it IS that input
	// (pass-through); any other collision would silently redefine the
	// input signal on reparse.
	for i, id := range n.Outputs {
		if in, clash := inputNames[n.OutputNames[i]]; clash && in != id {
			return fmt.Errorf("blif: output %q shadows a different input signal of the same name", n.OutputNames[i])
		}
	}
	outOf := make(map[int]string) // gate id -> output name (first claim wins)
	for i, id := range n.Outputs {
		if _, taken := outOf[id]; !taken && n.Gates[id].Type != logic.Input {
			outOf[id] = n.OutputNames[i]
		}
	}
	for gi, g := range n.Gates {
		if g.Type == logic.Input {
			continue
		}
		name, ok := outOf[gi]
		if !ok {
			name = fmt.Sprintf("n%d", gi)
		}
		sig[gi] = name
		if err := writeGate(bw, g, sig, name); err != nil {
			return err
		}
	}
	// Outputs that alias inputs or already-claimed gates need buffers.
	for i, id := range n.Outputs {
		if sig[id] != n.OutputNames[i] {
			ew.Printf(".names %s %s\n1 1\n", sig[id], n.OutputNames[i])
		}
	}
	ew.Println(".end")
	if err := ew.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

func sanitize(s string) string {
	if s == "" {
		return "model"
	}
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' {
			return '_'
		}
		return r
	}, s)
}

func writeGate(w io.Writer, g logic.Gate, sig []string, name string) error {
	fan := make([]string, len(g.Fanin))
	for i, f := range g.Fanin {
		fan[i] = sig[f]
	}
	head := strings.Join(append(fan, name), " ")
	switch g.Type {
	case logic.Const0:
		_, err := fmt.Fprintf(w, ".names %s\n", name) // empty cover = 0
		return err
	case logic.Const1:
		_, err := fmt.Fprintf(w, ".names %s\n1\n", name)
		return err
	case logic.Buf:
		_, err := fmt.Fprintf(w, ".names %s\n1 1\n", head)
		return err
	case logic.Not:
		_, err := fmt.Fprintf(w, ".names %s\n0 1\n", head)
		return err
	case logic.And:
		_, err := fmt.Fprintf(w, ".names %s\n%s 1\n", head, strings.Repeat("1", len(fan)))
		return err
	case logic.Nand:
		_, err := fmt.Fprintf(w, ".names %s\n%s 0\n", head, strings.Repeat("1", len(fan)))
		return err
	case logic.Or:
		if _, err := fmt.Fprintf(w, ".names %s\n", head); err != nil {
			return err
		}
		for i := range fan {
			row := strings.Repeat("-", len(fan))
			row = row[:i] + "1" + row[i+1:]
			if _, err := fmt.Fprintf(w, "%s 1\n", row); err != nil {
				return err
			}
		}
		return nil
	case logic.Nor:
		_, err := fmt.Fprintf(w, ".names %s\n%s 1\n", head, strings.Repeat("0", len(fan)))
		return err
	case logic.Xor, logic.Xnor:
		// A parity cover has 2^(n-1) cubes, so wide gates are chained
		// through auxiliary two-input XOR blocks ("name$x<k>", a suffix no
		// other generated signal uses) and only the final block carries the
		// (possibly negated) output.
		cur := fan[0]
		if len(fan) == 1 {
			cur = fan[0]
		}
		for i := 1; i+1 < len(fan); i++ {
			aux := fmt.Sprintf("%s$x%d", name, i-1)
			if _, err := fmt.Fprintf(w, ".names %s %s %s\n01 1\n10 1\n", cur, fan[i], aux); err != nil {
				return err
			}
			cur = aux
		}
		rows := "01 1\n10 1\n"
		if g.Type == logic.Xnor {
			rows = "00 1\n11 1\n"
		}
		if len(fan) == 1 {
			rows = "1 1\n"
			if g.Type == logic.Xnor {
				rows = "0 1\n"
			}
			_, err := fmt.Fprintf(w, ".names %s %s\n%s", cur, name, rows)
			return err
		}
		_, err := fmt.Fprintf(w, ".names %s %s %s\n%s", cur, fan[len(fan)-1], name, rows)
		return err
	case logic.Mux:
		_, err := fmt.Fprintf(w, ".names %s\n01- 1\n1-1 1\n", head)
		return err
	}
	return fmt.Errorf("blif: cannot serialize gate type %s", g.Type)
}

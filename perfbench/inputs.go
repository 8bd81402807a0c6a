package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"compact/internal/bench"
	"compact/internal/blif"
	"compact/internal/logic"
)

// circuit is one benchmark input: the generator's network, kept as the
// verification reference, and the BLIF text the program is handed.
type circuit struct {
	name string
	src  *logic.Network
	blif []byte
}

// makeCircuit builds a bundled circuit and writes it as BLIF with its
// internal nets renamed by rng. Primary input and output names, the gate
// order and every cover row are kept, so the synthesized design does not
// depend on the seed; only the text the parser reads does.
func makeCircuit(name string, rng *rand.Rand) (circuit, error) {
	g, ok := bench.ByName(name)
	if !ok {
		return circuit{}, fmt.Errorf("unknown circuit %q", name)
	}
	nw := g.Build()
	var buf bytes.Buffer
	if err := blif.Write(&buf, nw); err != nil {
		return circuit{}, fmt.Errorf("%s: writing BLIF: %w", name, err)
	}
	keep := map[string]bool{}
	for _, n := range nw.InputNames() {
		keep[n] = true
	}
	for _, n := range nw.OutputNames {
		keep[n] = true
	}
	return circuit{name: name, src: nw, blif: renameNets(buf.Bytes(), keep, rng)}, nil
}

// renameNets rewrites every net name on .names lines that is not in keep
// to a fresh seeded name. Cover rows and other directives pass through.
func renameNets(text []byte, keep map[string]bool, rng *rand.Rand) []byte {
	prefix := fmt.Sprintf("w%04x_", rng.Intn(1<<16))
	names := map[string]string{}
	lines := strings.Split(string(text), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, ".names ") {
			continue
		}
		fields := strings.Fields(line)
		for j := 1; j < len(fields); j++ {
			f := fields[j]
			if keep[f] {
				continue
			}
			r, ok := names[f]
			if !ok {
				r = fmt.Sprintf("%s%d", prefix, rng.Int63())
				names[f] = r
			}
			fields[j] = r
		}
		lines[i] = strings.Join(fields, " ")
	}
	return []byte(strings.Join(lines, "\n"))
}

// makeCircuits builds the named circuits in order.
func makeCircuits(names []string, rng *rand.Rand) ([]circuit, error) {
	out := make([]circuit, 0, len(names))
	for _, n := range names {
		c, err := makeCircuit(n, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

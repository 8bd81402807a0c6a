package ilp

import (
	"container/heap"
	"context"
	"math"
	"testing"
)

// servedNode is one node LP that installed a slot's factor, as the search
// saw it: the node, its bounds and the factor it was given.
type servedNode struct {
	node     *bbNode
	lbs, ubs []float64
	f        *factor
}

// TestFactorReuseExact records a serial solve of the Eq. 4 models of ctrl
// and cavlc and checks every node served from a slot: installing the
// factor it was given must leave its LP bit for bit as a fresh reinversion
// of the node's basis under the node's bounds does. A solve with the
// slots kept empty must then take the same path: the same X, Obj, Nodes
// and Iters, and one more reinversion per served node.
func TestFactorReuseExact(t *testing.T) {
	cases := []struct {
		circuit      string
		minServed    int
		maxRefactors int
	}{
		// Measured with the root solved from the slack basis, without
		// cuts; about half the served count, twice the reinversions.
		{"ctrl", 1, 14},    // measured: 2 served, 7 reinversions
		{"cavlc", 70, 530}, // measured: 141 served, 263 reinversions
	}
	for _, c := range cases {
		mod := eq4Testdata(t, c.circuit)
		var served []servedNode
		probe := &searchProbe{workers: 1, served: func(node *bbNode, lbs, ubs []float64, f *factor) {
			served = append(served, servedNode{node, lbs, ubs, f})
		}}
		sol, err := solve(context.Background(), mod, Options{}, probe)
		if err != nil || sol.Status != StatusOptimal {
			t.Fatalf("%s: %v / %v", c.circuit, err, sol.Status)
		}
		if len(served) < c.minServed {
			t.Errorf("%s: %d nodes served from a slot, want at least %d", c.circuit, len(served), c.minServed)
		}
		if sol.Refactors > c.maxRefactors {
			t.Errorf("%s: %d reinversions, ceiling %d", c.circuit, sol.Refactors, c.maxRefactors)
		}
		tmpl, err := lowerSparse(mod, mod.lb, mod.ub)
		if err != nil {
			t.Fatal(err)
		}
		for k, sv := range served {
			got, err := tmpl.warmNode(sv.lbs, sv.ubs, sv.node.basis)
			if err != nil {
				t.Fatalf("%s: served node %d: %v", c.circuit, k, err)
			}
			want, _ := tmpl.warmNode(sv.lbs, sv.ubs, sv.node.basis)
			if !got.install(sv.f) {
				t.Fatalf("%s: served node %d (seq %d): factor of another basic set", c.circuit, k, sv.node.seq)
			}
			if err := want.refactorize(); err != nil {
				t.Fatalf("%s: served node %d: %v", c.circuit, k, err)
			}
			if msg := sameFactorization(got, want); msg != "" {
				t.Fatalf("%s: served node %d (seq %d): %s", c.circuit, k, sv.node.seq, msg)
			}
		}

		cold, err := solve(context.Background(), mod, Options{}, &searchProbe{workers: 1, noReuse: true})
		if err != nil || cold.Status != StatusOptimal {
			t.Fatalf("%s without reuse: %v / %v", c.circuit, err, cold.Status)
		}
		if sol.Nodes != cold.Nodes || sol.Iters != cold.Iters ||
			math.Float64bits(sol.Obj) != math.Float64bits(cold.Obj) {
			t.Errorf("%s: with reuse %d nodes, %d iters, obj %v; without %d, %d, %v",
				c.circuit, sol.Nodes, sol.Iters, sol.Obj, cold.Nodes, cold.Iters, cold.Obj)
		}
		for j := range sol.X {
			if math.Float64bits(sol.X[j]) != math.Float64bits(cold.X[j]) {
				t.Fatalf("%s: X[%d] = %v with reuse, %v without", c.circuit, j, sol.X[j], cold.X[j])
			}
		}
		if cold.Refactors != sol.Refactors+len(served) {
			t.Errorf("%s: %d reinversions without reuse, want %d + %d served", c.circuit, cold.Refactors, sol.Refactors, len(served))
		}
	}
}

// sameFactorization compares the reinversion state of two LPs bit for bit:
// basis order, every eta, the fill counters and the basic solution. It
// returns "" when they agree.
func sameFactorization(got, want *rsLP) string {
	for i := range want.basis {
		if got.basis[i] != want.basis[i] {
			return "basis order differs"
		}
	}
	if len(got.etas) != len(want.etas) {
		return "eta counts differ"
	}
	for k := range want.etas {
		g, w := &got.etas[k], &want.etas[k]
		if g.r != w.r || math.Float64bits(g.pivInv) != math.Float64bits(w.pivInv) || len(g.ind) != len(w.ind) {
			return "an eta's pivot differs"
		}
		for t := range w.ind {
			if g.ind[t] != w.ind[t] || math.Float64bits(g.val[t]) != math.Float64bits(w.val[t]) {
				return "an eta's entries differ"
			}
		}
	}
	if got.etaNNZ != want.etaNNZ || got.baseNNZ != want.baseNNZ || got.pivots != want.pivots {
		return "fill counters differ"
	}
	for i := range want.xB {
		if math.Float64bits(got.xB[i]) != math.Float64bits(want.xB[i]) {
			return "xB differs"
		}
	}
	return ""
}

// TestNodeHeapOrder pins the open-node order: lower bounds pop first and,
// among equal bounds, the newest node (highest seq) does.
func TestNodeHeapOrder(t *testing.T) {
	cases := []struct {
		name   string
		bounds []float64 // node seq i has bounds[i]
		want   []int     // seqs in pop order
	}{
		{"bounds", []float64{3, 1, 2}, []int{1, 2, 0}},
		{"ties newest first", []float64{5, 5, 5, 5}, []int{3, 2, 1, 0}},
		{"mixed", []float64{2, 1, 2, 1, 0.5, 2}, []int{4, 3, 1, 5, 2, 0}},
		{"grid", []float64{76.5, 77, 77, 76.5, 77}, []int{3, 0, 4, 2, 1}},
	}
	for _, c := range cases {
		var h nodeHeap
		for seq, b := range c.bounds {
			heap.Push(&h, &bbNode{bound: b, seq: seq})
		}
		for k, want := range c.want {
			if got := heap.Pop(&h).(*bbNode).seq; got != want {
				t.Fatalf("%s: pop %d got seq %d, want %d", c.name, k, got, want)
			}
		}
	}
}

// TestParallelEq4SharesSlots solves cavlc's Eq. 4 model with four workers
// sharing one pair of slots: some nodes must be served from them, and the
// optimum must match the serial one. Run under -race it checks that the
// shared factors are only read.
func TestParallelEq4SharesSlots(t *testing.T) {
	mod := eq4Testdata(t, "cavlc")
	serial, err := solve(context.Background(), mod, Options{}, &searchProbe{workers: 1})
	if err != nil || serial.Status != StatusOptimal {
		t.Fatalf("serial: %v / %v", err, serial.Status)
	}
	served := 0
	probe := &searchProbe{workers: 4, served: func(*bbNode, []float64, []float64, *factor) { served++ }}
	par, err := solve(context.Background(), mod, Options{}, probe)
	if err != nil || par.Status != StatusOptimal {
		t.Fatalf("parallel: %v / %v", err, par.Status)
	}
	if served == 0 {
		t.Error("no node was served from a slot")
	}
	if math.Abs(par.Obj-serial.Obj) > 1e-9 {
		t.Errorf("obj parallel %v, serial %v", par.Obj, serial.Obj)
	}
	if err := mod.Feasible(par.X, 1e-6, false); err != nil {
		t.Errorf("parallel solution infeasible: %v", err)
	}
}

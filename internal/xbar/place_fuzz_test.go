package xbar

import (
	"context"
	"errors"
	"testing"

	"compact/internal/defect"
)

// bytesStack decodes a tiny plane stack for FuzzPlaceVsBruteForce: K in
// {2,3} wire layers of 1..3 wires, cells over two variables, and one
// defect map per plane (about one device in three stuck). Spare wires
// (0..2 per layer) appear only at K=2; K=3 maps are sized exactly.
func bytesStack(data []byte) Stack {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	k := 2 + next()%2
	widths, phys := make([]int, k), make([]int, k)
	for l := range widths {
		widths[l] = 1 + next()%3
		phys[l] = widths[l]
		if k == 2 {
			phys[l] += next() % 3
		}
	}
	s := Stack{Widths: widths, Planes: make([][][]Entry, k-1), Maps: make([]*defect.Map, k-1)}
	for p := range s.Planes {
		s.Planes[p] = make([][]Entry, widths[p])
		for r := range s.Planes[p] {
			s.Planes[p][r] = make([]Entry, widths[p+1])
			for c := range s.Planes[p][r] {
				switch b := next(); b % 4 {
				case 1:
					s.Planes[p][r][c] = Entry{Kind: On}
				case 2, 3:
					s.Planes[p][r][c] = Entry{Kind: Lit, Var: int32(b / 4 % 2), Neg: b/8%2 == 1}
				}
			}
		}
		dm, err := defect.New(phys[p], phys[p+1])
		if err != nil {
			panic(err)
		}
		for r := 0; r < phys[p]; r++ {
			for c := 0; c < phys[p+1]; c++ {
				switch next() % 6 {
				case 4:
					_ = dm.Set(r, c, defect.StuckOn)
				case 5:
					_ = dm.Set(r, c, defect.StuckOff)
				}
			}
		}
		s.Maps[p] = dm
	}
	return s
}

// bruteForcePlaceable enumerates every injective binding of every layer
// and reports whether one puts each used crossing on a compatible device.
func bruteForcePlaceable(s Stack) bool {
	k := len(s.Widths)
	phys := make([]int, k)
	for p, dm := range s.Maps {
		phys[p], phys[p+1] = dm.Rows(), dm.Cols()
	}
	perms := make([][]int, k)
	ok := func() bool {
		for p, plane := range s.Planes {
			for r, row := range plane {
				for c, e := range row {
					if kind, stuck := s.Maps[p].At(perms[p][r], perms[p+1][c]); stuck && !compatCell(e, kind) {
						return false
					}
				}
			}
		}
		return true
	}
	var layer func(l int) bool
	layer = func(l int) bool {
		if l == k {
			return ok()
		}
		used := make([]bool, phys[l])
		perm := make([]int, 0, s.Widths[l])
		var wire func() bool
		wire = func() bool {
			if len(perm) == s.Widths[l] {
				perms[l] = perm
				return layer(l + 1)
			}
			for w := range used {
				if used[w] {
					continue
				}
				used[w] = true
				perm = append(perm, w)
				if wire() {
					return true
				}
				perm = perm[:len(perm)-1]
				used[w] = false
			}
			return false
		}
		return wire()
	}
	return layer(0)
}

// stackWires compiles planes in the global wire numbering (layers
// concatenated), driving wire 0 and sensing every wire.
func stackWires(widths []int, planes [][][]Entry) *Wires {
	n := 0
	for _, w := range widths {
		n += w
	}
	outputs := make([]int, n)
	for i := range outputs {
		outputs[i] = i
	}
	w := NewWires(n, 0, outputs)
	base := 0
	for p, plane := range planes {
		for r, row := range plane {
			for c, e := range row {
				w.Add(base+r, base+widths[p]+c, e, func() string { return "" })
			}
		}
		base += widths[p]
	}
	return w
}

// FuzzPlaceVsBruteForce is the placement engine's exactness oracle: on a
// tiny stack the engine must place exactly when brute force finds a
// compatible binding, and otherwise refuse with a proven *Unplaceable.
// Every placement's effective stack must compute what the design computes
// under Eval.
func FuzzPlaceVsBruteForce(f *testing.F) {
	f.Add([]byte{0, 2, 1, 2, 2, 1, 2, 3, 6, 0, 0, 4, 5, 0, 0, 0, 0, 0, 4}, uint64(1), false)
	f.Add([]byte{1, 2, 2, 2, 1, 2, 3, 2, 1, 0, 2, 3, 1, 2, 3, 1, 2, 3, 4, 0, 0, 0, 5}, uint64(7), false)
	f.Add([]byte{0, 0, 0, 0, 0, 2, 4, 4, 4, 4, 4, 4}, uint64(3), true)
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, exact bool) {
		s := bytesStack(data)
		opts := PlaceOptions{Seed: seed}
		if exact {
			opts.Engine = PlaceILP
		}
		perms, engine, err := s.Place(context.Background(), opts)
		want := bruteForcePlaceable(s)
		if err != nil {
			var up *Unplaceable
			if !errors.As(err, &up) {
				t.Fatalf("untyped failure: %v", err)
			}
			if want {
				t.Fatalf("brute force places the stack, engine refused: %v", err)
			}
			if !up.Proven {
				t.Fatalf("unplaceable stack refused without proof: %v", err)
			}
			return
		}
		if !want {
			t.Fatalf("%s placement %v of a stack brute force cannot place", engine, perms)
		}
		eff, err := s.UnderDefects(perms)
		if err != nil {
			t.Fatal(err)
		}
		src, got := stackWires(s.Widths, s.Planes), stackWires(s.Widths, eff)
		for a := 0; a < 4; a++ {
			in := []bool{a&1 == 1, a&2 == 2}
			wantOut, err := src.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			gotOut, err := got.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			for o := range wantOut {
				if gotOut[o] != wantOut[o] {
					t.Fatalf("%s placement %v: wire %d reads %v under %v, design reads %v",
						engine, perms, o, gotOut[o], in, wantOut[o])
				}
			}
		}
	})
}

package xbar

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
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
	s := Stack{Widths: widths, Planes: make([]Plane, k-1), Maps: make([]*defect.Map, k-1)}
	for p := range s.Planes {
		grid := make([][]Entry, widths[p])
		for r := range grid {
			grid[r] = make([]Entry, widths[p+1])
			for c := range grid[r] {
				switch b := next(); b % 4 {
				case 1:
					grid[r][c] = Entry{Kind: On}
				case 2, 3:
					grid[r][c] = Entry{Kind: Lit, Var: int32(b / 4 % 2), Neg: b/8%2 == 1}
				}
			}
		}
		s.Planes[p] = gridPlane(grid)
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
	grids := make([][][]Entry, len(s.Planes))
	for p := range grids {
		grids[p] = planeGrid(&s.Planes[p])
	}
	ok := func() bool {
		for p, grid := range grids {
			for r, row := range grid {
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
func stackWires(widths []int, planes []Plane) *Wires {
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
	for p := range planes {
		for _, dv := range planes[p].Devices() {
			w.Add(base+dv.Row, base+widths[p]+dv.Col, dv.E, func() string { return "" })
		}
		base += widths[p]
	}
	return w
}

// FuzzPlaceVsBruteForce is the placement stream's exactness oracle: on a
// tiny stack, drained as core's loop drains it while nothing verifies, the
// stream must yield a placement whenever brute force finds a compatible
// binding, and any error that ends it must be a proven *Unplaceable. Every
// yielded placement must be distinct, and its effective stack must
// compute what the design computes.
func FuzzPlaceVsBruteForce(f *testing.F) {
	f.Add([]byte{0, 2, 1, 2, 2, 1, 2, 3, 6, 0, 0, 4, 5, 0, 0, 0, 0, 0, 4}, uint64(1))
	f.Add([]byte{1, 2, 2, 2, 1, 2, 3, 2, 1, 0, 2, 3, 1, 2, 3, 1, 2, 3, 4, 0, 0, 0, 5}, uint64(7))
	f.Add([]byte{0, 0, 0, 0, 0, 2, 4, 4, 4, 4, 4, 4}, uint64(3))
	// Every greedy seed fails on this 2x3 design; the exact stage places it.
	f.Add([]byte{0x72, 0xf1, 0x10, 0x08, 0x4f, 0x19, 0x6e, 0x0a, 0x63, 0xba, 0x7e, 0x66, 0xf0, 0x47, 0xf5, 0xa4, 0x71, 0x0a}, uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		s := bytesStack(data)
		cands, err := drain(context.Background(), s, seed)
		want := bruteForcePlaceable(s)
		if want && len(cands) == 0 {
			t.Fatalf("brute force places the stack, the stream yields nothing: %v", err)
		}
		if !want && len(cands) > 0 {
			t.Fatalf("%s placement %v of a stack brute force cannot place", cands[0].Engine, cands[0].Perms)
		}
		if err != nil {
			var up *Unplaceable
			if !errors.As(err, &up) || !up.Proven {
				t.Fatalf("stream ended in an unproven refusal: %v", err)
			}
		}
		seen := map[string]bool{}
		for _, pl := range cands {
			if key := fmt.Sprint(pl.Perms); seen[key] {
				t.Fatalf("%s placement %v repeats an earlier one", pl.Engine, pl.Perms)
			} else {
				seen[key] = true
			}
			eff, err := s.UnderDefects(pl.Perms)
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
							pl.Engine, pl.Perms, o, gotOut[o], in, wantOut[o])
					}
				}
			}
		}
	})
}

// FuzzKuhnVsRef checks that kuhn replays the recursive reference search
// exactly: on random relations of every density and random orders, with
// nLeft <= nRight <= 64, both must return the same assignment and verdict.
// Each input runs three instances through one matcher, so stale scratch
// from a previous call would show.
func FuzzKuhnVsRef(f *testing.F) {
	f.Add(uint8(6), uint8(8), uint8(255), uint64(1))
	f.Add(uint8(40), uint8(40), uint8(200), uint64(2))
	f.Add(uint8(64), uint8(64), uint8(30), uint64(3))
	f.Add(uint8(10), uint8(60), uint8(8), uint64(4))
	f.Fuzz(func(t *testing.T, left, right, density uint8, seed uint64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		m := &matcher{}
		for inst := 0; inst < 3; inst++ {
			nRight := int(right) % 65
			nLeft := int(left) % (nRight + 1)
			if inst > 0 {
				nRight = rng.Intn(65)
				nLeft = rng.Intn(nRight + 1)
			}
			rel := make([]bool, nLeft*nRight)
			for k := range rel {
				rel[k] = rng.Intn(256) < int(density)
			}
			ok := func(l, r int) bool { return rel[l*nRight+r] }
			order := identityPerm(nRight)
			if seed%4 != 0 || inst > 0 {
				order = rng.Perm(nRight)
			}
			want, wantOK := kuhnRef(nLeft, nRight, ok, order)
			got, gotOK, err := setRelation(m, nLeft, nRight, ok).kuhn(context.Background(), nLeft, order)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK || !slices.Equal(got, want) {
				t.Fatalf("instance %d (%dx%d, order %v): kuhn %v complete=%v, reference %v complete=%v",
					inst, nLeft, nRight, order, got, gotOK, want, wantOK)
			}
		}
	})
}

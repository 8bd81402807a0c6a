package xbar

import (
	"encoding/json"
	"strings"
	"testing"
)

// testDesign builds a rows x cols design from a hand-written device list;
// a rejected list is a bug in the test.
func testDesign(rows, cols int, devs ...Device) *Design {
	d, err := NewDesign([]int{rows, cols}, devs)
	if err != nil {
		panic(err)
	}
	return d
}

// setCell programs crossing (r, c) of p with e (Off clears it).
func setCell(p *Plane, r, c int, e Entry) {
	*p = p.With([]Device{{Row: r, Col: c, E: e}})
}

// flipCell complements the literal at (r, c) in place.
func flipCell(p *Plane, r, c int) {
	e := p.At(r, c)
	e.Neg = !e.Neg
	setCell(p, r, c, e)
}

// gridPlane converts a dense test grid (rows of equal length) into a
// Plane.
func gridPlane(grid [][]Entry) Plane {
	cols := 0
	var devs []Device
	for r, row := range grid {
		cols = len(row)
		for c, e := range row {
			devs = append(devs, Device{Row: r, Col: c, E: e})
		}
	}
	p, err := NewPlane(len(grid), cols, devs)
	if err != nil {
		panic(err)
	}
	return p
}

// planeGrid expands p into a dense grid through At.
func planeGrid(p *Plane) [][]Entry {
	grid := make([][]Entry, p.Rows())
	for r := range grid {
		grid[r] = make([]Entry, p.Cols())
		for c := range grid[r] {
			grid[r][c] = p.At(r, c)
		}
	}
	return grid
}

func TestPlane(t *testing.T) {
	lit := func(v int32, neg bool) Entry { return Entry{Kind: Lit, Var: v, Neg: neg} }
	on := Entry{Kind: On}
	// Devices in no particular order; the Off one is dropped.
	p, err := NewPlane(3, 4, []Device{
		{2, 3, lit(1, true)}, {0, 2, on}, {2, 0, lit(0, false)}, {1, 1, Entry{}}, {0, 0, lit(2, false)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows() != 3 || p.Cols() != 4 || p.Len() != 4 {
		t.Fatalf("%dx%d plane with %d devices", p.Rows(), p.Cols(), p.Len())
	}
	want := []Device{{0, 0, lit(2, false)}, {0, 2, on}, {2, 0, lit(0, false)}, {2, 3, lit(1, true)}}
	if got := p.Devices(); !equalDevices(got, want) {
		t.Fatalf("Devices() = %v, want %v in row-major order", got, want)
	}
	if cs, _ := p.Row(1); len(cs) != 0 {
		t.Errorf("row 1 holds columns %v", cs)
	}
	if cs, es := p.Row(2); len(cs) != 2 || cs[0] != 0 || cs[1] != 3 || es[1] != lit(1, true) {
		t.Errorf("row 2 = %v %v", cs, es)
	}
	for _, c := range []struct {
		r, c int
		e    Entry
	}{{0, 0, lit(2, false)}, {0, 1, Entry{}}, {0, 2, on}, {2, 3, lit(1, true)}, {1, 1, Entry{}}, {-1, 0, Entry{}}, {3, 0, Entry{}}, {0, 4, Entry{}}} {
		if got := p.At(c.r, c.c); got != c.e {
			t.Errorf("At(%d,%d) = %v, want %v", c.r, c.c, got, c.e)
		}
	}
	if lits, ons := p.Counts(); lits != 3 || ons != 1 {
		t.Errorf("Counts() = %d, %d", lits, ons)
	}

	// With overwrites, removes and inserts, and leaves the receiver alone.
	q := p.With([]Device{{2, 3, Entry{}}, {1, 2, on}, {0, 0, lit(5, true)}})
	want2 := []Device{{0, 0, lit(5, true)}, {0, 2, on}, {1, 2, on}, {2, 0, lit(0, false)}}
	if got := q.Devices(); !equalDevices(got, want2) {
		t.Fatalf("With: %v, want %v", got, want2)
	}
	if got := p.Devices(); !equalDevices(got, want) {
		t.Fatalf("With changed its receiver: %v", got)
	}

	// RemapVars is all or nothing.
	if err := p.RemapVars([]int{7, 8}); err == nil || !strings.Contains(err.Error(), "variable 2 outside remap") {
		t.Fatalf("short remap: %v", err)
	}
	if p.At(2, 0) != lit(0, false) {
		t.Fatal("a failed remap changed a cell")
	}
	if err := p.RemapVars([]int{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if p.At(0, 0) != lit(9, false) || p.At(2, 3) != lit(8, true) || p.At(0, 2) != on {
		t.Fatalf("remapped plane: %v", p.Devices())
	}

	for name, tc := range map[string]struct {
		rows, cols int
		devs       []Device
		want       string
	}{
		"row out of range":    {2, 2, []Device{{0, 0, on}, {2, 0, on}}, "cell #1 at (2,0) outside 2x2"},
		"col out of range":    {2, 2, []Device{{0, -1, on}}, "outside"},
		"off out of range":    {2, 2, []Device{{5, 5, Entry{}}}, "outside"},
		"duplicate":           {2, 3, []Device{{1, 2, on}, {0, 0, on}, {1, 2, lit(0, false)}}, "duplicate cell at (1,2)"},
		"negative dimensions": {-1, 2, nil, "negative"},
	} {
		if _, err := NewPlane(tc.rows, tc.cols, tc.devs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", name, err, tc.want)
		}
	}

	var zero Plane
	if zero.Rows() != 0 || zero.Len() != 0 || zero.At(0, 0).Kind != Off || len(zero.Devices()) != 0 {
		t.Error("the zero Plane is not the empty 0x0 plane")
	}
}

func equalDevices(a, b []Device) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzPlaneVsDense checks the sparse plane against a dense [][]Entry
// reference built from the same device list: At on every crossing, row
// iteration in row-major order, rejection of duplicate and out-of-range
// devices, and a JSON round trip through a design. The bytes encode the
// plane's rows and columns (1..8 each) and then three bytes per device:
// row, column and entry (b%3 picks Off, On or Lit; a literal reads
// variable b/3%4, complemented when b >= 128). Coordinates range one
// past the plane, so out-of-range devices occur.
func FuzzPlaneVsDense(f *testing.F) {
	f.Add([]byte{3, 4, 0, 0, 2, 0, 2, 1, 2, 3, 133})
	f.Add([]byte{2, 2, 1, 1, 1, 1, 1, 5})                   // duplicate crossing
	f.Add([]byte{1, 1, 1, 0, 1})                            // row out of range
	f.Add([]byte{8, 8, 7, 7, 2, 0, 0, 3, 4, 5, 6, 7, 0, 1}) // corners, an Off device
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rows, cols := 1+int(data[0]%8), 1+int(data[1]%8)
		var devs []Device
		for b := data[2:]; len(b) >= 3; b = b[3:] {
			e := Entry{}
			switch b[2] % 3 {
			case 1:
				e = Entry{Kind: On}
			case 2:
				e = Entry{Kind: Lit, Var: int32(b[2] / 3 % 4), Neg: b[2] >= 128}
			}
			devs = append(devs, Device{Row: int(b[0]) % (rows + 1), Col: int(b[1]) % (cols + 1), E: e})
		}

		dense := make([][]Entry, rows)
		for r := range dense {
			dense[r] = make([]Entry, cols)
		}
		var wantErr string
		seen := make(map[[2]int]bool)
		for _, d := range devs {
			if d.Row >= rows || d.Col >= cols {
				wantErr = "outside" // checked before any duplicate
				break
			}
			if d.E.Kind == Off {
				continue
			}
			if seen[[2]int{d.Row, d.Col}] && wantErr == "" {
				wantErr = "duplicate"
			}
			seen[[2]int{d.Row, d.Col}] = true
			dense[d.Row][d.Col] = d.E
		}
		p, err := NewPlane(rows, cols, devs)
		if wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Fatalf("devices %v: got %v, want a %q error", devs, err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("devices %v: %v", devs, err)
		}

		var want []Device
		for r, row := range dense {
			for c, e := range row {
				if got := p.At(r, c); got != e {
					t.Fatalf("At(%d,%d) = %v, dense %v", r, c, got, e)
				}
				if e.Kind != Off {
					want = append(want, Device{r, c, e})
				}
			}
		}
		if got := p.Devices(); !equalDevices(got, want) {
			t.Fatalf("Devices() = %v, dense row-major %v", got, want)
		}
		if p.Len() != len(want) {
			t.Fatalf("Len() = %d for %d devices", p.Len(), len(want))
		}

		d := &Design{Rows: rows, Cols: cols, Widths: []int{rows, cols}, Planes: []Plane{p}, Outputs: rowRefs(0)}
		enc, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var back Design
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("round trip: %v\n%s", err, enc)
		}
		if got := back.Planes[0].Devices(); !equalDevices(got, want) {
			t.Fatalf("round trip: %v, want %v", got, want)
		}
	})
}

// rowRefs addresses wordlines of a 2D design.
func rowRefs(rows ...int) []WireRef {
	refs := make([]WireRef, len(rows))
	for i, r := range rows {
		refs[i] = WireRef{Index: r}
	}
	return refs
}

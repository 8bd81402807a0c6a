package xbar

import (
	"fmt"
	"slices"
	"sort"
)

// Sparse device planes
//
// A mapped plane holds one device per BDD edge and one via stitch per
// spanned layer pair, O(n + m) devices in a Rows x Cols array whose
// semiperimeter is O(n): on the largest bundled circuit 0.03% of the
// crossings are programmed. A Plane therefore stores only its non-Off
// cells, in row-major order, as compressed sparse rows (CSR): start[r] ..
// start[r+1]-1 index row r's devices, col holds their column indices in
// ascending order and ent their entries. Every crossing not listed is Off.

// Device is one programmed crossing of a plane.
type Device struct {
	Row, Col int
	E        Entry
}

// Plane is one device plane of Rows x Cols crossings, held as its non-Off
// cells in row-major CSR form. The zero Plane is the empty 0 x 0 plane. A
// Plane is a view over shared storage: copying the value shares the
// devices, and Row exposes them for in-place edits.
type Plane struct {
	rows, cols int
	start      []int // len rows+1 (nil for the zero Plane)
	col        []int
	ent        []Entry
}

// NewPlane builds a rows x cols plane from a device list in any order.
// Off entries are dropped. A device outside the plane, or a second device
// on a crossing, is rejected.
func NewPlane(rows, cols int, devs []Device) (Plane, error) {
	if rows < 0 || cols < 0 {
		return Plane{}, fmt.Errorf("negative plane dimensions %dx%d", rows, cols)
	}
	p := Plane{rows: rows, cols: cols, start: make([]int, rows+1)}
	n := 0
	for i, d := range devs {
		if d.Row < 0 || d.Row >= rows || d.Col < 0 || d.Col >= cols {
			return Plane{}, fmt.Errorf("cell #%d at (%d,%d) outside %dx%d", i, d.Row, d.Col, rows, cols)
		}
		if d.E.Kind != Off {
			p.start[d.Row+1]++
			n++
		}
	}
	for r := 0; r < rows; r++ {
		p.start[r+1] += p.start[r]
	}
	// Counting sort by row, then each row by column.
	p.col, p.ent = make([]int, n), make([]Entry, n)
	next := append([]int(nil), p.start[:rows]...)
	for _, d := range devs {
		if d.E.Kind != Off {
			i := next[d.Row]
			next[d.Row]++
			p.col[i], p.ent[i] = d.Col, d.E
		}
	}
	for r := 0; r < rows; r++ {
		cs, es := p.Row(r)
		if !slices.IsSorted(cs) {
			sort.Sort(rowOrder{cs, es})
		}
		for i := 1; i < len(cs); i++ {
			if cs[i] == cs[i-1] {
				return Plane{}, fmt.Errorf("duplicate cell at (%d,%d)", r, cs[i])
			}
		}
	}
	return p, nil
}

// rowOrder sorts one row's devices by column.
type rowOrder struct {
	cs []int
	es []Entry
}

func (o rowOrder) Len() int           { return len(o.cs) }
func (o rowOrder) Less(i, j int) bool { return o.cs[i] < o.cs[j] }
func (o rowOrder) Swap(i, j int) {
	o.cs[i], o.cs[j] = o.cs[j], o.cs[i]
	o.es[i], o.es[j] = o.es[j], o.es[i]
}

// Rows returns the plane's row count.
func (p *Plane) Rows() int { return p.rows }

// Cols returns the plane's column count.
func (p *Plane) Cols() int { return p.cols }

// Len returns the number of devices (non-Off cells).
func (p *Plane) Len() int { return len(p.ent) }

// At returns the cell at (r, c): its device, or Off when the crossing
// holds none or lies outside the plane.
func (p *Plane) At(r, c int) Entry {
	cs, es := p.Row(r)
	if i, ok := slices.BinarySearch(cs, c); ok {
		return es[i]
	}
	return Entry{}
}

// Row returns row r's devices: their columns in ascending order and their
// entries. Both slices share the plane's storage; writing an entry edits
// the plane (and stales the wire graph of a design that owns it). A row
// outside the plane has no devices.
func (p *Plane) Row(r int) ([]int, []Entry) {
	if r < 0 || r >= p.rows {
		return nil, nil
	}
	lo, hi := p.start[r], p.start[r+1]
	return p.col[lo:hi:hi], p.ent[lo:hi:hi]
}

// Devices lists the plane's devices in row-major order.
func (p *Plane) Devices() []Device {
	out := make([]Device, 0, len(p.ent))
	for r := 0; r < p.rows; r++ {
		cs, es := p.Row(r)
		for i, c := range cs {
			out = append(out, Device{Row: r, Col: c, E: es[i]})
		}
	}
	return out
}

// Counts returns the number of literal and statically-on devices.
func (p *Plane) Counts() (lit, on int) {
	for _, e := range p.ent {
		switch e.Kind {
		case Lit:
			lit++
		case On:
			on++
		}
	}
	return lit, on
}

// transpose returns the plane with rows and columns swapped: row c of the
// result lists column c's devices, by row.
func (p *Plane) transpose() Plane {
	devs := p.Devices()
	for k := range devs {
		devs[k].Row, devs[k].Col = devs[k].Col, devs[k].Row
	}
	t, _ := NewPlane(p.cols, p.rows, devs) // a plane's devices are in range and distinct
	return t
}

// RemapVars rewrites every literal's variable v to remap[v], in place. A
// literal remap does not cover fails the call before any cell changes.
func (p *Plane) RemapVars(remap []int) error {
	for r := 0; r < p.rows; r++ {
		cs, es := p.Row(r)
		for i, e := range es {
			if e.Kind == Lit && (e.Var < 0 || int(e.Var) >= len(remap)) {
				return fmt.Errorf("cell (%d,%d) variable %d outside remap", r, cs[i], e.Var)
			}
		}
	}
	for i, e := range p.ent {
		if e.Kind == Lit {
			p.ent[i].Var = int32(remap[e.Var])
		}
	}
	return nil
}

// With returns a copy of the plane with the cells of set overwritten: an
// Off entry removes the device on its crossing, any other entry places or
// replaces one. set must hold in-range crossings, each at most once. The
// receiver is unchanged; With(nil) is a deep copy.
func (p *Plane) With(set []Device) Plane {
	set = slices.Clone(set)
	slices.SortFunc(set, func(a, b Device) int {
		if a.Row != b.Row {
			return a.Row - b.Row
		}
		return a.Col - b.Col
	})
	q := Plane{rows: p.rows, cols: p.cols, start: make([]int, p.rows+1),
		col: make([]int, 0, len(p.col)+len(set)), ent: make([]Entry, 0, len(p.ent)+len(set))}
	put := func(c int, e Entry) {
		if e.Kind != Off {
			q.col, q.ent = append(q.col, c), append(q.ent, e)
		}
	}
	k := 0
	for r := 0; r < p.rows; r++ {
		cs, es := p.Row(r)
		i := 0
		for ; k < len(set) && set[k].Row == r; k++ {
			for ; i < len(cs) && cs[i] < set[k].Col; i++ {
				put(cs[i], es[i])
			}
			if i < len(cs) && cs[i] == set[k].Col {
				i++ // overwritten
			}
			put(set[k].Col, set[k].E)
		}
		for ; i < len(cs); i++ {
			put(cs[i], es[i])
		}
		q.start[r+1] = len(q.col)
	}
	return q
}

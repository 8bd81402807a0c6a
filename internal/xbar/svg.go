package xbar

import (
	"fmt"
	"io"

	"compact/internal/errio"
)

// WriteSVG renders a 2D (K = 2) design as a scalable vector graphic: wordlines as
// horizontal rails, bitlines as vertical rails, and one circle per
// programmed memristor — green for always-on, blue for positive literals,
// red for negated ones. The input wordline is marked with the drive arrow
// and every output wordline with its sense label, mirroring the paper's
// crossbar figures.
func (d *Design) WriteSVG(w io.Writer) error {
	cells, err := d.flat()
	if err != nil {
		return err
	}
	const (
		cell   = 26
		margin = 70
	)
	width := margin*2 + (d.Cols-1)*cell
	height := margin*2 + (d.Rows-1)*cell
	if d.Cols == 1 {
		width = margin * 2
	}
	if d.Rows == 1 {
		height = margin * 2
	}
	x := func(c int) int { return margin + c*cell }
	y := func(r int) int { return margin + r*cell }
	ew := errio.NewWriter(w)

	ew.Printf(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	ew.Printf(`<rect width="100%%" height="100%%" fill="white"/>` + "\n")

	// Rails.
	for r := 0; r < d.Rows; r++ {
		ew.Printf(`<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#444" stroke-width="2"/>`+"\n",
			x(0)-cell/2, y(r), x(d.Cols-1)+cell/2, y(r))
	}
	for c := 0; c < d.Cols; c++ {
		ew.Printf(`<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#999" stroke-width="2"/>`+"\n",
			x(c), y(0)-cell/2, x(c), y(d.Rows-1)+cell/2)
	}

	// Devices.
	for _, dev := range cells.Devices() {
		r, c, e := dev.Row, dev.Col, dev.E
		if e.Kind == Off {
			continue // a device cleared in place through Row
		}
		fill := "#2e7d32" // green: always on
		if e.Kind == Lit {
			fill = "#1565c0" // blue
			if e.Neg {
				fill = "#c62828" // red
			}
		}
		ew.Printf(`<circle cx="%d" cy="%d" r="7" fill="%s"/>`+"\n", x(c), y(r), fill)
		if e.Kind == Lit {
			ew.Printf(`<text x="%d" y="%d" font-size="9" font-family="monospace" text-anchor="middle" fill="white">%s</text>`+"\n",
				x(c), y(r)+3, svgEscape(shortLabel(e, d.VarNames)))
		}
	}

	// Ports.
	ew.Printf(`<text x="%d" y="%d" font-size="12" font-family="monospace" text-anchor="end" fill="#2e7d32">Vin&#8594;</text>`+"\n",
		x(0)-cell/2-4, y(d.Input.Index)+4)
	seen := map[int]bool{}
	for i, o := range d.Outputs {
		r := o.Index
		if seen[r] {
			continue
		}
		seen[r] = true
		name := fmt.Sprintf("f%d", i)
		if i < len(d.OutputNames) {
			name = d.OutputNames[i]
		}
		ew.Printf(`<text x="%d" y="%d" font-size="12" font-family="monospace" fill="#1565c0">&#8594;%s</text>`+"\n",
			x(d.Cols-1)+cell/2+4, y(r)+4, svgEscape(name))
	}
	ew.Println("</svg>")
	return ew.Err()
}

// shortLabel abbreviates a literal for the small in-circle text.
func shortLabel(e Entry, names []string) string {
	s := e.label(names)
	if len(s) > 4 {
		s = s[:4]
	}
	return s
}

func svgEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			out = append(out, "&lt;"...)
		case '>':
			out = append(out, "&gt;"...)
		case '&':
			out = append(out, "&amp;"...)
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

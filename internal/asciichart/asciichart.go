// Package asciichart renders the paper's figures as terminal plots: line
// charts with multiple series (Figures 1, 4) and scatter plots (Figures 3,
// 5) plotted point by point on a Canvas, and Figure 2's bar chart drawn as
// one text row per bar. Pure text, no dependencies — the harness prints
// the same series the paper plots and the shapes are judged by eye and by
// the accompanying numeric summaries.
package asciichart

import (
	"fmt"
	"math"
	"strings"
)

// Canvas is a character grid with an x/y data window mapped onto it.
type Canvas struct {
	w, h   int
	cells  [][]rune
	x0, x1 float64
	y0, y1 float64
}

// NewCanvas builds a w x h plotting area covering [x0,x1] x [y0,y1]. It
// panics on degenerate geometry.
func NewCanvas(w, h int, x0, x1, y0, y1 float64) *Canvas {
	if w < 2 || h < 2 {
		panic(fmt.Sprintf("asciichart: canvas %dx%d too small", w, h))
	}
	if !(x1 > x0) || !(y1 > y0) {
		panic(fmt.Sprintf("asciichart: degenerate window [%v,%v]x[%v,%v]", x0, x1, y0, y1))
	}
	cells := make([][]rune, h)
	for i := range cells {
		cells[i] = make([]rune, w)
		for j := range cells[i] {
			cells[i][j] = ' '
		}
	}
	return &Canvas{w: w, h: h, cells: cells, x0: x0, x1: x1, y0: y0, y1: y1}
}

// pixel maps data coordinates to grid indices; ok is false outside the
// window.
func (c *Canvas) pixel(x, y float64) (col, row int, ok bool) {
	if math.IsNaN(x) || math.IsNaN(y) {
		return 0, 0, false
	}
	fx := (x - c.x0) / (c.x1 - c.x0)
	fy := (y - c.y0) / (c.y1 - c.y0)
	if fx < 0 || fx > 1 || fy < 0 || fy > 1 {
		return 0, 0, false
	}
	col = int(fx * float64(c.w-1))
	row = c.h - 1 - int(fy*float64(c.h-1))
	return col, row, true
}

// Plot marks the data point with the given glyph (clipped to the window).
func (c *Canvas) Plot(x, y float64, glyph rune) {
	if col, row, ok := c.pixel(x, y); ok {
		c.cells[row][col] = glyph
	}
}

// Line plots a series of y values at the given x positions.
func (c *Canvas) Line(xs, ys []float64, glyph rune) {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("asciichart: Line length mismatch %d vs %d", len(xs), len(ys)))
	}
	for i := range xs {
		c.Plot(xs[i], ys[i], glyph)
	}
}

// String renders the canvas with a y-axis scale and frame.
func (c *Canvas) String() string {
	var b strings.Builder
	for row := 0; row < c.h; row++ {
		// y label every few rows.
		frac := float64(c.h-1-row) / float64(c.h-1)
		yv := c.y0 + float64(frac*(c.y1-c.y0))
		if row%4 == 0 || row == c.h-1 {
			fmt.Fprintf(&b, "%9.2f |", yv)
		} else {
			b.WriteString("          |")
		}
		b.WriteString(string(c.cells[row]))
		b.WriteByte('\n')
	}
	b.WriteString("          +")
	b.WriteString(strings.Repeat("-", c.w))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%12.6g%s%.6g\n", c.x0, strings.Repeat(" ", maxInt(1, c.w-10)), c.x1)
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Series pairs a glyph with y values for multi-series line charts.
type Series struct {
	Glyph  rune
	Label  string
	Values []float64
}

// LineChart renders one or more series over a shared integer x axis
// (0..n-1), auto-scaling y to the data with a little headroom.
func LineChart(title string, w, h int, series ...Series) string {
	n := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if len(s.Values) > n {
			n = len(s.Values)
		}
		for _, v := range s.Values {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if n < 2 || math.IsInf(lo, 1) {
		return title + "\n(no data)\n"
	}
	if hi == lo {
		hi = lo + 1
	}
	pad := float64((hi - lo) * 0.05)
	cv := NewCanvas(w, h, 0, float64(n-1), math.Min(lo, 0), hi+pad)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, s := range series {
		cv.Line(xs[:len(s.Values)], s.Values, s.Glyph)
	}
	var b strings.Builder
	b.WriteString(title + "\n")
	for _, s := range series {
		fmt.Fprintf(&b, "  %c = %s\n", s.Glyph, s.Label)
	}
	b.WriteString(cv.String())
	return b.String()
}

// BarChart renders labelled bars (Figure 2's walltime-by-node-count).
func BarChart(title string, labels []string, values []float64, width int) string {
	if len(labels) != len(values) {
		panic(fmt.Sprintf("asciichart: BarChart length mismatch %d vs %d", len(labels), len(values)))
	}
	var b strings.Builder
	b.WriteString(title + "\n")
	hi := 0.0
	for _, v := range values {
		if v > hi {
			hi = v
		}
	}
	if hi == 0 {
		hi = 1
	}
	for i, v := range values {
		n := int(v / hi * float64(width))
		fmt.Fprintf(&b, "%8s | %-*s %.3g\n", labels[i], width, strings.Repeat("#", n), v)
	}
	return b.String()
}

// Scatter renders x/y points with auto-scaled axes (Figures 3 and 5).
func Scatter(title string, w, h int, xs, ys []float64, glyph rune) string {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("asciichart: Scatter length mismatch %d vs %d", len(xs), len(ys)))
	}
	if len(xs) == 0 {
		return title + "\n(no data)\n"
	}
	xlo, xhi := xs[0], xs[0]
	ylo, yhi := ys[0], ys[0]
	for i := range xs {
		xlo, xhi = math.Min(xlo, xs[i]), math.Max(xhi, xs[i])
		ylo, yhi = math.Min(ylo, ys[i]), math.Max(yhi, ys[i])
	}
	if xhi == xlo {
		xhi = xlo + 1
	}
	if yhi == ylo {
		yhi = ylo + 1
	}
	cv := NewCanvas(w, h, xlo, xhi+float64((xhi-xlo)*0.02), math.Min(ylo, 0), yhi+float64((yhi-ylo)*0.05))
	for i := range xs {
		cv.Plot(xs[i], ys[i], glyph)
	}
	return title + "\n" + cv.String()
}

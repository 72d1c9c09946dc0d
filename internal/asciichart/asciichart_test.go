package asciichart

import (
	"math"
	"strings"
	"testing"
)

func TestNewCanvasValidation(t *testing.T) {
	cases := []struct {
		w, h           int
		x0, x1, y0, y1 float64
	}{
		{1, 10, 0, 1, 0, 1},
		{10, 1, 0, 1, 0, 1},
		{10, 10, 1, 1, 0, 1},
		{10, 10, 0, 1, 2, 2},
		{10, 10, 2, 1, 0, 1},
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			NewCanvas(c.w, c.h, c.x0, c.x1, c.y0, c.y1)
		}()
	}
}

func TestPlotCorners(t *testing.T) {
	c := NewCanvas(10, 5, 0, 9, 0, 4)
	c.Plot(0, 0, 'A') // bottom-left
	c.Plot(9, 4, 'B') // top-right
	if c.cells[4][0] != 'A' {
		t.Fatalf("bottom-left = %q", c.cells[4][0])
	}
	if c.cells[0][9] != 'B' {
		t.Fatalf("top-right = %q", c.cells[0][9])
	}
}

func TestPlotClipsOutside(t *testing.T) {
	c := NewCanvas(10, 5, 0, 9, 0, 4)
	c.Plot(-1, 0, 'X')
	c.Plot(0, 99, 'X')
	c.Plot(math.NaN(), 1, 'X')
	for _, row := range c.cells {
		for _, ch := range row {
			if ch == 'X' {
				t.Fatal("out-of-window point plotted")
			}
		}
	}
}

func TestLineMismatchPanics(t *testing.T) {
	c := NewCanvas(10, 5, 0, 9, 0, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Line([]float64{1, 2}, []float64{1}, '*')
}

func TestCanvasStringHasFrame(t *testing.T) {
	c := NewCanvas(20, 8, 0, 10, 0, 5)
	s := c.String()
	if !strings.Contains(s, "+") || !strings.Contains(s, "|") {
		t.Fatal("frame missing")
	}
	if len(strings.Split(strings.TrimRight(s, "\n"), "\n")) != 8+2 {
		t.Fatalf("unexpected line count in:\n%s", s)
	}
}

func TestLineChart(t *testing.T) {
	s := LineChart("Figure 1", 40, 10,
		Series{Glyph: '*', Label: "daily", Values: []float64{1, 2, 3, 2, 1}},
		Series{Glyph: 'o', Label: "avg", Values: []float64{1.5, 2, 2, 2, 1.5}},
	)
	if !strings.Contains(s, "Figure 1") || !strings.Contains(s, "* = daily") {
		t.Fatalf("chart header missing:\n%s", s)
	}
	if !strings.ContainsRune(s, '*') || !strings.ContainsRune(s, 'o') {
		t.Fatal("series glyphs missing")
	}
}

func TestLineChartEmpty(t *testing.T) {
	s := LineChart("empty", 40, 10)
	if !strings.Contains(s, "(no data)") {
		t.Fatalf("empty chart = %q", s)
	}
	s = LineChart("one", 40, 10, Series{Glyph: '*', Values: []float64{5}})
	if !strings.Contains(s, "(no data)") {
		t.Fatal("single-point chart should degrade gracefully")
	}
}

func TestLineChartConstantSeries(t *testing.T) {
	s := LineChart("flat", 40, 10, Series{Glyph: '*', Label: "c", Values: []float64{2, 2, 2}})
	if !strings.ContainsRune(s, '*') {
		t.Fatal("constant series not plotted")
	}
}

func TestBarChart(t *testing.T) {
	s := BarChart("Figure 2", []string{"8", "16", "32"}, []float64{10, 40, 20}, 20)
	lines := strings.Split(s, "\n")
	count := func(line string) int { return strings.Count(line, "#") }
	if count(lines[2]) != 20 {
		t.Fatalf("peak bar = %d hashes, want full width:\n%s", count(lines[2]), s)
	}
	if count(lines[1]) >= count(lines[3]) || count(lines[3]) >= count(lines[2]) {
		t.Fatalf("bar ordering wrong:\n%s", s)
	}
}

func TestBarChartZeros(t *testing.T) {
	s := BarChart("z", []string{"a"}, []float64{0}, 10)
	if !strings.Contains(s, "a") {
		t.Fatal("label missing")
	}
}

func TestBarChartMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	BarChart("x", []string{"a"}, []float64{1, 2}, 10)
}

func TestScatter(t *testing.T) {
	s := Scatter("Figure 5", 40, 10, []float64{0, 1, 2, 3}, []float64{20, 10, 5, 2}, 'x')
	if !strings.Contains(s, "Figure 5") || !strings.ContainsRune(s, 'x') {
		t.Fatalf("scatter broken:\n%s", s)
	}
}

func TestScatterEmptyAndDegenerate(t *testing.T) {
	if s := Scatter("e", 40, 10, nil, nil, 'x'); !strings.Contains(s, "(no data)") {
		t.Fatal("empty scatter")
	}
	// Single point: degenerate ranges must not panic.
	s := Scatter("p", 40, 10, []float64{1}, []float64{1}, 'x')
	if !strings.ContainsRune(s, 'x') {
		t.Fatal("single point missing")
	}
}

func TestScatterMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Scatter("x", 10, 5, []float64{1}, nil, 'x')
}

package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableText(t *testing.T) {
	tb := NewTable("Table 1", "Operation", "Time")
	tb.AddRow("One-Qubit Gate", "1µs")
	tb.AddRow("Two-Qubit Gate", "20µs")
	var b strings.Builder
	if err := tb.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"# Table 1", "Operation", "One-Qubit Gate", "20µs"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	// Alignment: the Time column should start at the same offset on data
	// rows.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 4 {
		t.Fatalf("unexpected line count: %d", len(lines))
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow("plain", 3.5)
	tb.AddRow("with,comma", `say "hi"`)
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "a,b\n") {
		t.Errorf("missing header: %s", out)
	}
	if !strings.Contains(out, "plain,3.5") {
		t.Errorf("missing plain row: %s", out)
	}
	if !strings.Contains(out, `"with,comma","say ""hi"""`) {
		t.Errorf("missing quoted row: %s", out)
	}
}

func TestFloatFormatting(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.5:     "1.5",
		2e-8:    "2.000e-08",
		3.2e9:   "3.200e+09",
		123.456: "123.5",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%g) = %q, want %q", in, got, want)
		}
	}
	if got := formatFloat(math.Inf(1)); got != "inf" {
		t.Errorf("formatFloat(+inf) = %q, want inf", got)
	}
}

func TestPlotLogLog(t *testing.T) {
	p := NewPlot("Fig", "distance", "pairs")
	p.LogX, p.LogY = true, true
	var xs, ys []float64
	for d := 1; d <= 60; d++ {
		xs = append(xs, float64(d))
		ys = append(ys, math.Pow(2, float64(d)))
	}
	p.Add(Series{Name: "exponential", X: xs, Y: ys})
	var b strings.Builder
	if err := p.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# Fig") || !strings.Contains(out, "exponential") {
		t.Errorf("plot output incomplete:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Error("plot has no points")
	}
	// On log-log axes an exponential is convex increasing; at minimum the
	// first and last columns must both be plotted.
	lines := strings.Split(out, "\n")
	var rows []string
	for _, l := range lines {
		if strings.HasPrefix(l, "|") {
			rows = append(rows, l)
		}
	}
	if len(rows) == 0 {
		t.Fatal("no plot rows")
	}
	if !strings.Contains(rows[0], "*") {
		t.Error("top row (max y) has no point")
	}
	if !strings.Contains(rows[len(rows)-1], "*") {
		t.Error("bottom row (min y) has no point")
	}
}

func TestPlotDropsUnplottablePoints(t *testing.T) {
	p := NewPlot("x", "x", "y")
	p.LogY = true
	p.Add(Series{Name: "bad", X: []float64{1, 2, 3}, Y: []float64{0, math.Inf(1), math.NaN()}})
	var b strings.Builder
	if err := p.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no plottable points") {
		t.Errorf("expected empty-plot message:\n%s", b.String())
	}
}

func TestPlotMultipleSeriesGlyphs(t *testing.T) {
	p := NewPlot("multi", "x", "y")
	p.Add(Series{Name: "a", X: []float64{0, 1}, Y: []float64{0, 1}})
	p.Add(Series{Name: "b", X: []float64{0, 1}, Y: []float64{1, 0}})
	var b strings.Builder
	if err := p.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("expected two glyph kinds:\n%s", out)
	}
	if !strings.Contains(out, "* a") || !strings.Contains(out, "o b") {
		t.Errorf("legend missing:\n%s", out)
	}
}

func TestPlotConstantSeries(t *testing.T) {
	p := NewPlot("flat", "x", "y")
	p.Add(Series{Name: "c", X: []float64{1, 2, 3}, Y: []float64{5, 5, 5}})
	var b strings.Builder
	if err := p.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "*") {
		t.Error("constant series should still plot")
	}
}

// TestShade pins the heatmap cell rule: '.' at or below zero, a digit
// scaling against full above it, and anything past full clamped to '9'
// — the backlog regime route.Loads reports reads as saturated rather
// than an out-of-range byte.
func TestShade(t *testing.T) {
	cases := []struct {
		v, full float64
		want    byte
	}{
		{-1, 1, '.'},
		{-0.001, 1, '.'},
		{0, 1, '.'},
		{0.05, 1, '0'},
		{0.5, 1, '4'},
		{1, 1, '9'},
		{1.001, 1, '9'}, // just over capacity: one queued batch
		{1.75, 1, '9'},  // the backlog regime route.Loads reports
		{3.25, 1, '9'},  // deep backlog
		{math.Inf(1), 1, '9'},
		{0.3, 0.6, '4'}, // against a map's maximum
		{0.6, 0.6, '9'},
		{0.2, 0, '9'},
	}
	for _, c := range cases {
		if got := Shade(c.v, c.full); got != c.want {
			t.Errorf("Shade(%v, %v) = %q, want %q", c.v, c.full, got, c.want)
		}
	}
}

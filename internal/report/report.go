// Package report renders experiment results as CSV, aligned text tables,
// ASCII log-log plots and heatmap cells, so every figure and table of
// the paper can be regenerated on a terminal without plotting
// dependencies.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table accumulates rows and renders them aligned or as CSV.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e5 || math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// WriteText renders the table aligned for terminals.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "# %s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := w.Write([]byte(b.String()))
	return err
}

// WriteCSV renders the table as CSV (RFC-4180 quoting for cells that
// need it).
func (t *Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := w.Write([]byte(b.String()))
	return err
}

// Shade renders one ASCII heatmap cell: '.' for a value at or below
// zero, otherwise a digit 0-9 scaling the value against full, with a
// value above full clamped to '9'.  Loads that follow the route.Loads
// contract exceed 1.0 under backlog, so a map of them shades against 1
// and a saturated cell reads '9' without blowing the scale for the rest.
func Shade(v, full float64) byte {
	if v <= 0 {
		return '.'
	}
	f := v / full
	if f > 1 {
		f = 1
	}
	return byte('0' + int(f*9))
}

// Series is one named curve of (x, y) points for plotting.
type Series struct {
	Name string
	X, Y []float64
}

// Plot renders named series on an ASCII grid with optional log scaling,
// one glyph per series.
type Plot struct {
	Title        string
	XLabel       string
	YLabel       string
	LogX, LogY   bool
	Width        int // plot area columns (default 72)
	Height       int // plot area rows (default 24)
	serieses     []Series
	glyphs       string
	clampedAbove int
}

// NewPlot creates an empty plot.
func NewPlot(title, xlabel, ylabel string) *Plot {
	return &Plot{
		Title:  title,
		XLabel: xlabel,
		YLabel: ylabel,
		Width:  72,
		Height: 24,
		glyphs: "*o+x#@%&",
	}
}

// Add appends a series; points with non-finite or (under log scaling)
// non-positive coordinates are dropped.
func (p *Plot) Add(s Series) {
	p.serieses = append(p.serieses, s)
}

// Write renders the plot.
func (p *Plot) Write(w io.Writer) error {
	width, height := p.Width, p.Height
	if width < 16 {
		width = 16
	}
	if height < 8 {
		height = 8
	}

	tx := func(x float64) (float64, bool) { return p.transform(x, p.LogX) }
	ty := func(y float64) (float64, bool) { return p.transform(y, p.LogY) }

	// Find bounds over usable points.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	usable := 0
	for _, s := range p.serieses {
		for i := range s.X {
			x, okx := tx(s.X[i])
			y, oky := ty(s.Y[i])
			if !okx || !oky {
				continue
			}
			usable++
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	var b strings.Builder
	if p.Title != "" {
		fmt.Fprintf(&b, "# %s\n", p.Title)
	}
	if usable == 0 {
		b.WriteString("(no plottable points)\n")
		_, err := w.Write([]byte(b.String()))
		return err
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	cells := make([][]byte, height)
	for i := range cells {
		cells[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range p.serieses {
		glyph := p.glyphs[si%len(p.glyphs)]
		for i := range s.X {
			x, okx := tx(s.X[i])
			y, oky := ty(s.Y[i])
			if !okx || !oky {
				continue
			}
			col := int((x - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((y-minY)/(maxY-minY)*float64(height-1))
			cells[row][col] = glyph
		}
	}

	yTop := p.untransform(maxY, p.LogY)
	yBot := p.untransform(minY, p.LogY)
	fmt.Fprintf(&b, "%s (top=%s bottom=%s)\n", p.YLabel, formatFloat(yTop), formatFloat(yBot))
	for _, row := range cells {
		fmt.Fprintf(&b, "|%s|\n", string(row))
	}
	fmt.Fprintf(&b, "+%s+\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s: %s .. %s\n", p.XLabel,
		formatFloat(p.untransform(minX, p.LogX)), formatFloat(p.untransform(maxX, p.LogX)))
	for si, s := range p.serieses {
		fmt.Fprintf(&b, "  %c %s\n", p.glyphs[si%len(p.glyphs)], s.Name)
	}
	_, err := w.Write([]byte(b.String()))
	return err
}

func (p *Plot) transform(v float64, log bool) (float64, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	if !log {
		return v, true
	}
	if v <= 0 {
		return 0, false
	}
	return math.Log10(v), true
}

func (p *Plot) untransform(v float64, log bool) float64 {
	if !log {
		return v
	}
	return math.Pow(10, v)
}

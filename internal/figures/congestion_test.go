package figures

import (
	"strings"
	"testing"
	"time"

	"repro/internal/mesh"

	"repro/qnet/simulate"
	"repro/qnet/trace"
)

// smallCongestion runs the figure at the smallest interesting size.
func smallCongestion(t *testing.T) *CongestionData {
	t.Helper()
	cfg := DefaultCongestionConfig(3)
	cfg.Columns = 16
	data, err := Congestion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCongestionProducesFullSeries asserts the one traced pass covers
// the run in the requested column budget: the series halved as it
// filled and ends with more than half of the 16 columns, never more.
func TestCongestionProducesFullSeries(t *testing.T) {
	data := smallCongestion(t)
	cols := len(data.Trace.Times)
	if cols <= 16/2 || cols > 16 {
		t.Errorf("trace has %d columns, want 9 to 16", cols)
	}
	if int(data.Trace.TotalSamples) != cols {
		t.Errorf("TotalSamples = %d, want len(Times) = %d", data.Trace.TotalSamples, cols)
	}
	if last := time.Duration(data.Trace.Times[cols-1]); last > data.Exec || data.Exec-last >= time.Duration(data.Trace.IntervalNS) {
		t.Errorf("last sample at %v, want within one %v interval of Exec %v",
			last, time.Duration(data.Trace.IntervalNS), data.Exec)
	}
	if data.Qubits != 9 {
		t.Errorf("Qubits = %d, want 9 on a 3x3 mesh", data.Qubits)
	}
	if data.Exec <= 0 {
		t.Errorf("Exec = %v, want positive", data.Exec)
	}
	if data.Policy != "xy" {
		t.Errorf("Policy = %q, want the xy default", data.Policy)
	}
	if len(data.Links) != 12 {
		t.Errorf("%d links on a 3x3 mesh, want 12", len(data.Links))
	}
}

// TestCongestionHeatmapRenders asserts the ASCII heatmap carries one
// row per link with one cell per sample, using only the digit alphabet.
func TestCongestionHeatmapRenders(t *testing.T) {
	data := smallCongestion(t)
	out := data.Heatmap()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if !strings.Contains(lines[0], "QFT-9") || !strings.Contains(lines[0], "xy routing") {
		t.Errorf("heatmap header %q missing run metadata", lines[0])
	}
	rows := lines[1:]
	if len(rows) != len(data.Links) {
		t.Fatalf("%d heatmap rows, want one per link (%d)", len(rows), len(data.Links))
	}
	cols := len(data.Trace.Times)
	for _, row := range rows {
		cells := row[strings.LastIndexByte(row, ' ')+1:]
		if len(cells) != cols {
			t.Errorf("row %q has %d cells, want %d", row, len(cells), cols)
		}
		for _, c := range cells {
			if c != '.' && (c < '0' || c > '9') {
				t.Errorf("row %q contains cell %q outside the digit alphabet", row, c)
			}
		}
	}
	// Something must actually be hot: a QFT saturates the mesh links.
	if !strings.ContainsAny(out, "123456789") {
		t.Error("heatmap shows no nonzero utilization for a full QFT")
	}
}

// TestCongestionHeatmapClampsBacklog asserts the normalization-layer
// half of the route.Loads contract at the renderer: utilization values
// past 1.0 (the backlog regime) read as '9', never as an out-of-range
// byte.
func TestCongestionHeatmapClampsBacklog(t *testing.T) {
	grid, err := mesh.NewGrid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := &CongestionData{
		Config: CongestionConfig{Layout: simulate.HomeBase},
		Qubits: 4,
		Policy: "xy",
		Links:  grid.Links(),
		Trace: &trace.Export{
			Times: []int64{1000, 2000},
			LinkUtil: [][]float64{
				{2.5, 0.5, 0, 1.0},
				{1.001, 0, 0, 0.999},
			},
		},
	}
	out := data.Heatmap()
	rows := strings.Split(strings.TrimRight(out, "\n"), "\n")[1:]
	// Hottest link first: link 0 (mean 1.75) renders both overloaded
	// cells as the top digit.
	if cells := rows[0][strings.LastIndexByte(rows[0], ' ')+1:]; cells != "99" {
		t.Errorf("backlogged link renders %q, want \"99\"", cells)
	}
	for _, row := range rows {
		for _, c := range row[strings.LastIndexByte(row, ' ')+1:] {
			if c != '.' && (c < '0' || c > '9') {
				t.Errorf("unclamped cell %q in %q", c, row)
			}
		}
	}
}

// TestCongestionHotLinksDeterministic asserts the hottest-first order is
// stable: descending mean utilization, index-ascending ties, truncated
// at MaxLinks.
func TestCongestionHotLinksDeterministic(t *testing.T) {
	grid, err := mesh.NewGrid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := &CongestionData{
		Config: CongestionConfig{MaxLinks: 3},
		Links:  grid.Links(),
		Trace: &trace.Export{
			// Means: link0=0.2, link1=0.5, link2=0.5, link3=0.1.
			LinkUtil: [][]float64{
				{0.2, 0.4, 0.6, 0.1},
				{0.2, 0.6, 0.4, 0.1},
			},
		},
	}
	want := []int{1, 2, 0}
	got := data.hotLinks()
	if len(got) != len(want) {
		t.Fatalf("hotLinks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hotLinks = %v, want %v (ties break index-ascending)", got, want)
		}
	}
}

// TestCongestionRejectsBadConfig pins the validation errors.
func TestCongestionRejectsBadConfig(t *testing.T) {
	if _, err := Congestion(CongestionConfig{GridSize: 1}); err == nil {
		t.Error("grid size 1 accepted")
	}
	cfg := DefaultCongestionConfig(3)
	cfg.Columns = 1
	if _, err := Congestion(cfg); err == nil {
		t.Error("single-column heatmap accepted")
	}
}

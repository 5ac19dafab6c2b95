package figures

import (
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/phys"

	"repro/qnet/channel"
)

var base = phys.IonTrap2006()

func render(t *testing.T, w interface {
	WriteText(sw *strings.Builder) error
}) string {
	t.Helper()
	var b strings.Builder
	if err := w.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestTable1ContainsPaperValues(t *testing.T) {
	var b strings.Builder
	if err := Table1(base).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"t1q", "t2q", "20", "tgen", "122", "ttprt", "tprfy"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2ContainsPaperValues(t *testing.T) {
	var b strings.Builder
	if err := Table2(base).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"p1q", "1.000e-08", "pmv", "1.000e-06"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestFig8Renders(t *testing.T) {
	tab, plot := Fig8(base, 25)
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	// 2 protocols × 3 fidelities × 26 rounds + header.
	if lines := strings.Count(b.String(), "\n"); lines != 2*3*26+1 {
		t.Errorf("Fig8 CSV has %d lines, want %d", lines, 2*3*26+1)
	}
	b.Reset()
	if err := plot.Write(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DEJMPS F0=0.99", "BBPSSW F0=0.9999"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("Fig8 plot missing legend %q", want)
		}
	}
}

func TestFig9Renders(t *testing.T) {
	tab, plot := Fig9(base, 70)
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(b.String(), "\n"); lines != 5*71+1 {
		t.Errorf("Fig9 CSV has %d lines, want %d", lines, 5*71+1)
	}
	b.Reset()
	if err := plot.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "threshold error 7.5e-5") {
		t.Error("Fig9 plot missing the threshold line")
	}
}

func TestFig10And11Render(t *testing.T) {
	cfg := channel.DefaultDistribution(base)
	for _, teleported := range []bool{false, true} {
		tab, plot := Fig10(cfg, teleported)
		var b strings.Builder
		if err := tab.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(b.String(), "\n"); lines != 5*60+1 {
			t.Errorf("teleported=%v: CSV has %d lines, want %d", teleported, lines, 5*60+1)
		}
		b.Reset()
		if err := plot.Write(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "only at end") {
			t.Errorf("teleported=%v: missing scheme legend", teleported)
		}
	}
}

func TestFig12Renders(t *testing.T) {
	tab, plot := Fig12(base, 10)
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Breakdown must appear: some rows infeasible.
	if !strings.Contains(out, "false") {
		t.Error("Fig12 should contain infeasible points near 1e-4")
	}
	if !strings.Contains(out, "true") {
		t.Error("Fig12 should contain feasible points at low error rates")
	}
	b.Reset()
	if err := plot.Write(&b); err != nil {
		t.Fatal(err)
	}
}

func TestFig12RatesSpanFiveDecades(t *testing.T) {
	rates := Fig12Rates()
	if rates[0] != 1e-9 {
		t.Errorf("first rate = %g, want 1e-9", rates[0])
	}
	last := rates[len(rates)-1]
	if last < 9.9e-5 || last > 1.1e-4 {
		t.Errorf("last rate = %g, want 1e-4", last)
	}
	if len(rates) != 21 {
		t.Errorf("rate count = %d, want 21 (quarter decades)", len(rates))
	}
}

func TestClaimsTable(t *testing.T) {
	var b strings.Builder
	if err := Claims(base).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Corner-to-corner", "crossover", "392", "breakdown", "several dozen"} {
		if !strings.Contains(strings.ToLower(out), strings.ToLower(want)) {
			t.Errorf("claims table missing %q:\n%s", want, out)
		}
	}
}

func TestFig16SmallSweep(t *testing.T) {
	cfg := Fig16Config{GridSize: 4, Area: 48, Ratios: []int{1, 8}}
	data, err := Fig16(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) != 4 { // 2 layouts × 2 ratios
		t.Fatalf("rows = %d, want 4", len(data.Rows))
	}
	if len(data.Seeds) != 5 {
		t.Fatalf("seeds = %v, want the default five-seed ensemble", data.Seeds)
	}
	for _, r := range data.Rows {
		if r.Normalized < 1 {
			t.Errorf("%v %v normalized %.2f < 1: cannot beat unlimited resources",
				r.Layout, r.Allocation, r.Normalized)
		}
		if r.Ensemble.N != 5 {
			t.Errorf("%v %v: ensemble over %d seeds, want 5", r.Layout, r.Allocation, r.Ensemble.N)
		}
		// Deterministic (failure-free) configuration: the ensemble must
		// collapse to zero spread.
		if r.NormalizedCI.Half() != 0 {
			t.Errorf("%v %v: nonzero CI %v without failure injection",
				r.Layout, r.Allocation, r.NormalizedCI)
		}
	}
	// With failure injection off, every seed beyond the first must be a
	// cache hit: 2 layouts × 3 resource points × (5-1) seeds.
	if data.Sweep.CacheHits != 2*3*4 {
		t.Errorf("cache hits = %d, want %d (seed ensemble should collapse)",
			data.Sweep.CacheHits, 2*3*4)
	}
	var b strings.Builder
	if err := data.Table().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "baseline") {
		t.Error("Fig16 table missing baseline rows")
	}
	b.Reset()
	if err := data.Plot().Write(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "MobileQubit") {
		t.Error("Fig16 plot missing layout legend")
	}
}

func TestFig16PaperShape(t *testing.T) {
	// The paper's Figure 16 claims, on the quick 8×8 configuration:
	// (1) Mobile Qubit performance suffers as resources shift from P to
	//     T' — "as shown in the difference between t=g=4p and t=g=8p";
	// (2) Home Base tolerates the shift better than Mobile.
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	data, err := Fig16(DefaultFig16Config())
	if err != nil {
		t.Fatal(err)
	}
	norm := map[netsim.Layout]map[int]float64{
		netsim.HomeBase:    {},
		netsim.MobileQubit: {},
	}
	for _, r := range data.Rows {
		norm[r.Layout][r.Allocation.Ratio] = r.Normalized
	}
	mobile := norm[netsim.MobileQubit]
	home := norm[netsim.HomeBase]
	if mobile[8] <= mobile[4] {
		t.Errorf("Mobile at 8p (%.2f) should be slower than at 4p (%.2f)", mobile[8], mobile[4])
	}
	if mobile[4] <= mobile[1] {
		t.Errorf("Mobile at 4p (%.2f) should be slower than at 1p (%.2f)", mobile[4], mobile[1])
	}
	mobileDegradation := mobile[8] / mobile[1]
	homeDegradation := home[8] / home[1]
	if mobileDegradation <= homeDegradation {
		t.Errorf("Mobile degradation %.2fx should exceed Home Base %.2fx",
			mobileDegradation, homeDegradation)
	}
}

func TestFig16RejectsTinyGrid(t *testing.T) {
	if _, err := Fig16(Fig16Config{GridSize: 1, Area: 48, Ratios: []int{1}}); err == nil {
		t.Error("grid size 1 should fail")
	}
}

func TestMEMMTable(t *testing.T) {
	data, err := MEMM(DefaultMEMMConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := data.Table.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"QFT", "MM", "ME", "HomeBase", "MobileQubit"} {
		if !strings.Contains(out, want) {
			t.Errorf("kernel table missing %q:\n%s", want, out)
		}
	}
}

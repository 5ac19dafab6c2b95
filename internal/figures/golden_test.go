package figures

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"

	"repro/qnet/channel"
)

// TestAnalyticGolden pins every number the closed-form models produce:
// Tables 1 and 2, the text claims and Figures 8-12 as cmd/figures
// renders them (Figure 12 at 10 hops), the planner's Channel at hops
// {1, 2, 3, 5, 7, 15, 30} × t = g = p {1, 4, 16, 1024}, and the
// methodology table of `sweep -mode methodology`.  Floats and
// durations in the planner and methodology sections print at full
// precision, so a change to the channel model shows up as a diff of
// testdata/analytic.golden.
//
// Regenerate (only for an intentional model change) with:
//
//	QNET_UPDATE_GOLDEN=1 go test -run TestAnalyticGolden ./internal/figures/
func TestAnalyticGolden(t *testing.T) {
	var b strings.Builder
	section := func(name string, tab *report.Table) {
		fmt.Fprintf(&b, "# %s\n", name)
		if err := tab.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
	}
	section("table1", Table1(base))
	section("table2", Table2(base))
	section("claims", Claims(base))
	fig8, _ := Fig8(base, 25)
	section("fig8", fig8)
	fig9, _ := Fig9(base, 70)
	section("fig9", fig9)
	fig10, _ := Fig10(channel.DefaultDistribution(base), false)
	section("fig10", fig10)
	fig11, _ := Fig10(channel.DefaultDistribution(base), true)
	section("fig11", fig11)
	fig12, _ := Fig12(base, 10)
	section("fig12", fig12)

	b.WriteString("# plan\n")
	b.WriteString("Hops,Units,ErrorRate,EndpointRounds,Turns,PairsPerLogical,PairHopsPerLogical," +
		"SetupLatency,DataLatency,Bandwidth,Bottleneck,HopCells,TurnCells,CodeLevel,Scheme," +
		"Teleporters,Generators,Purifiers,Err\n")
	for _, hops := range []int{1, 2, 3, 5, 7, 15, 30} {
		for _, n := range []int{1, 4, 16, 1024} {
			ch, err := channel.Plan(channel.Spec{Params: base, Hops: hops, Teleporters: n, Generators: n, Purifiers: n})
			if err != nil {
				fmt.Fprintf(&b, "%d,%d,,,,,,,,,,,,,,,,,%q\n", hops, n, err.Error())
				continue
			}
			s := ch.Spec
			fmt.Fprintf(&b, "%d,%d,%v,%d,%d,%d,%v,%v,%v,%v,%s,%d,%d,%d,%q,%d,%d,%d,\n",
				hops, n, ch.ErrorRate, ch.EndpointRounds, ch.Turns, ch.PairsPerLogical, ch.PairHopsPerLogical,
				ch.SetupLatency, ch.DataLatency, ch.Bandwidth, ch.Bottleneck,
				s.HopCells, s.TurnCells, s.CodeLevel, s.Scheme.String(), s.Teleporters, s.Generators, s.Purifiers)
		}
	}

	b.WriteString("# methodology\n")
	b.WriteString("Cells,BallisticLatency,TeleportLatency,BallisticPairError,ChainedPairError," +
		"ArrivalError,Rounds,FinalError,PairsConsumed,SetupLatency,ControlSignals,Feasible\n")
	for _, cells := range []int{600, 1800, 6000, 18000, 36000} {
		c, err := channel.CompareMethodologies(base, cells, 600)
		if err != nil {
			t.Fatal(err)
		}
		r, err := channel.BallisticDistribution{Params: base, DistanceCells: cells}.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%d,%v,%v,%v,%v,%v,%d,%v,%v,%v,%d,%v\n",
			c.DistanceCells, c.BallisticLatency, c.TeleportLatency, c.BallisticPairError, c.ChainedPairError,
			r.ArrivalError, r.Rounds, r.FinalError, r.PairsConsumed, r.SetupLatency, r.ControlSignals, r.Feasible)
	}

	got := b.String()
	path := filepath.Join("testdata", "analytic.golden")
	if os.Getenv("QNET_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("analytic output diverged from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("analytic output diverged from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

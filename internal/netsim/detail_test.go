package netsim

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestRunDetailedMatchesRun(t *testing.T) {
	g := grid(t, 4, 4)
	prog := workload.QFT(16)
	cfg := DefaultConfig(g, HomeBase, 16, 16, 8)
	plain, err := run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	detailed, detail, err := runDetailed(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if plain != detailed {
		t.Error("Run and RunDetailed disagree on the summary")
	}
	if detail == nil {
		t.Fatal("detail missing")
	}
	if len(detail.TeleporterUtil) != 16 || len(detail.PurifierUtil) != 16 {
		t.Errorf("per-tile stats have wrong length: %d/%d",
			len(detail.TeleporterUtil), len(detail.PurifierUtil))
	}
	if len(detail.GeneratorUtil) != len(g.Links()) {
		t.Errorf("per-link stats length %d, want %d", len(detail.GeneratorUtil), len(g.Links()))
	}
}

func TestDetailAggregatesMatchResult(t *testing.T) {
	g := grid(t, 4, 4)
	prog := workload.QFT(16)
	cfg := DefaultConfig(g, HomeBase, 16, 16, 8)
	res, detail, err := runDetailed(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range detail.TeleporterUtil {
		sum += v
	}
	mean := sum / float64(len(detail.TeleporterUtil))
	if diff := mean - res.TeleporterUtil; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("mean of per-tile teleporter util %g != summary %g", mean, res.TeleporterUtil)
	}
}

func TestHeatmapRendering(t *testing.T) {
	g := grid(t, 4, 4)
	prog := workload.QFT(16)
	_, detail, err := runDetailed(DefaultConfig(g, HomeBase, 16, 16, 8), prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"teleporter", "purifier"} {
		out, err := detail.Heatmap(metric)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, metric) {
			t.Errorf("heatmap missing title: %q", out)
		}
		rows := strings.Count(out, "\n") - 1
		if rows != 4 {
			t.Errorf("heatmap has %d rows, want 4", rows)
		}
		// At least one hot tile must appear (digit 9 = the maximum).
		if !strings.Contains(out, "9") {
			t.Errorf("heatmap has no maximal tile:\n%s", out)
		}
	}
	if _, err := detail.Heatmap("bogus"); err == nil {
		t.Error("unknown metric should fail")
	}
}

func TestHottestTile(t *testing.T) {
	g := grid(t, 4, 4)
	prog := workload.QFT(16)
	_, detail, err := runDetailed(DefaultConfig(g, HomeBase, 16, 16, 8), prog)
	if err != nil {
		t.Fatal(err)
	}
	c, v := detail.HottestTile()
	if !g.Contains(c) {
		t.Errorf("hottest tile %v outside grid", c)
	}
	if v <= 0 {
		t.Errorf("hottest utilization = %g, want > 0", v)
	}
	for _, u := range detail.TeleporterUtil {
		if u > v {
			t.Errorf("found hotter tile (%g) than reported max (%g)", u, v)
		}
	}
}

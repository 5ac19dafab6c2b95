package netsim

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"

	"repro/qnet/fault"
	"repro/qnet/route"
)

// TestContendedRunsGolden pins every Result field, Events included, of
// four contended runs outside the parity goldens' space (5×5 meshes at
// 16/16/8 and 4/4/2, no drops): an 8×8 QFT-64 at the paper's 21/21/5
// on each layout, a lossy 6×6 HomeBase run under least-congested
// routing, and a 6×6 MobileQubit run over dead links with drops and
// purification failures under fault-adaptive routing.  The event count
// is part of the contract: a change to the event core or the hop
// datapath that adds, drops or reorders an event shows up as a diff of
// testdata/contended.golden.
//
// Regenerate (only for an intentional simulator change) with:
//
//	QNET_UPDATE_GOLDEN=1 go test -run TestContendedRunsGolden ./internal/netsim/
func TestContendedRunsGolden(t *testing.T) {
	g8, g6 := grid(t, 8, 8), grid(t, 6, 6)
	runs := []struct {
		name string
		cfg  Config
	}{
		{"8x8/HomeBase/xy", DefaultConfig(g8, HomeBase, 21, 21, 5)},
		{"8x8/MobileQubit/xy", DefaultConfig(g8, MobileQubit, 21, 21, 5)},
		{"6x6/HomeBase/least-congested/drop0.01", DefaultConfig(g6, HomeBase, 21, 21, 5)},
		{"6x6/MobileQubit/fault-adaptive/dead0.05-drop0.02-fail0.1", DefaultConfig(g6, MobileQubit, 21, 21, 5)},
	}
	runs[0].cfg.Route = route.XYOrder()
	runs[1].cfg.Route = route.XYOrder()
	runs[2].cfg.Route = route.LeastCongested()
	runs[2].cfg.Faults = fault.Spec{Drop: 0.01}
	runs[2].cfg.Seed = 7
	runs[3].cfg.Route = route.FaultAdaptive()
	runs[3].cfg.Faults = fault.Spec{DeadLinks: 0.05, Drop: 0.02}
	runs[3].cfg.PurifyFailureRate = 0.1
	runs[3].cfg.Seed = 7

	var b strings.Builder
	for _, r := range runs {
		res, err := run(r.cfg, workload.QFT(r.cfg.Grid.Tiles()))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		fmt.Fprintf(&b, "# %s\n", r.name)
		v := reflect.ValueOf(res)
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(&b, "%s = %v\n", v.Type().Field(i).Name, v.Field(i).Interface())
		}
	}

	got := b.String()
	path := filepath.Join("testdata", "contended.golden")
	if os.Getenv("QNET_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
				t.Fatalf("contended runs diverged from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("contended runs diverged from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

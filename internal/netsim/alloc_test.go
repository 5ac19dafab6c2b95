//go:build !race

// The race detector instruments allocations, so this guard builds only
// without -race.

package netsim

import (
	"testing"

	"repro/internal/workload"
)

// maxRunAllocs bounds the allocations of one 5x5 HomeBase QFT-25 run.
// The run sends 29,400 batches over 600 channels, so one allocation per
// batch alone would exceed it: the bound holds only while the hop/arrive
// datapath recycles its batch records and captures no closure per stage.
// What remains is per-run and per-channel state (build, route cache,
// channel records and their completion callbacks).
const maxRunAllocs = 10000

// TestRunAllocationsStayPerChannel pins the closure-free datapath on the
// shape of perfbench's QFT/layout=HomeBase/route=xy entry.
func TestRunAllocationsStayPerChannel(t *testing.T) {
	cfg := DefaultConfig(grid(t, 5, 5), HomeBase, 16, 16, 8)
	prog := workload.QFT(cfg.Grid.Tiles())
	var runErr error
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(cfg, prog); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs > maxRunAllocs {
		t.Errorf("5x5 HomeBase QFT-25 run: %.0f allocs, want <= %d", allocs, maxRunAllocs)
	}
	t.Logf("5x5 HomeBase QFT-25 run: %.0f allocs", allocs)
}

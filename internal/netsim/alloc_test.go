//go:build !race

// The race detector instruments allocations, so this guard builds only
// without -race.

package netsim

import (
	"runtime"
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
		if _, err := run(cfg, prog); err != nil {
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

// maxRunBytes bounds the bytes one 8x8 HomeBase QFT-64 run at t=21,
// g=21, p=5 (Figure 16's t=g=4p allocation) allocates.  HomeBase QFT
// opens a channel over every ordered pair of home tiles once, so the
// run caches about 4,000 routes and replays none: the bound holds only
// while the route cache stores hop directions alone, not the visited
// tiles as well.
const maxRunBytes = 4 << 20

// TestRunBytesStayBounded pins the directions-only route cache by the
// TotalAlloc delta of one run.
func TestRunBytesStayBounded(t *testing.T) {
	cfg := DefaultConfig(grid(t, 8, 8), HomeBase, 21, 21, 5)
	prog := workload.QFT(cfg.Grid.Tiles())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := run(cfg, prog)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	if bytes > maxRunBytes {
		t.Errorf("8x8 HomeBase QFT-64 run: %d bytes allocated, want <= %d", bytes, maxRunBytes)
	}
	t.Logf("8x8 HomeBase QFT-64 run: %d bytes, %d allocs", bytes, after.Mallocs-before.Mallocs)
}

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
// The run executes 300 ops over 600 channels and sends 29,400 batches,
// so one allocation per channel alone would come near it: the bound
// holds only while op, channel and batch records are recycled, no stage
// captures a closure and a waiting batch queues on its own node.  What
// remains is the build (195 resources and semaphores), the engine's
// rings, and the route cache, which holds one path from the policy for
// each of the 600 ordered pairs of homes.
const maxRunAllocs = 2000

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

// TestRunAllocationsFlatInProgramLength pins what a run allocates to
// its mesh and its peak number of records in flight, not to its
// program: a 6x6 QFT-36 at t=g=21, p=5 (Figure 16's t=g=4p point) runs
// its 630 ops once, twice and four times over.  Repeating the ops
// opens no new pair of tiles under HomeBase, so its runs must allocate
// within 10% of the single pass.  A MobileQubit qubit ends a pass away
// from where it began it, so the second pass opens new pairs and the
// third and fourth none: its four-pass run must stay within 10% of the
// two-pass one.
func TestRunAllocationsFlatInProgramLength(t *testing.T) {
	allocs := func(layout Layout, passes int) float64 {
		cfg := DefaultConfig(grid(t, 6, 6), layout, 21, 21, 5)
		prog := workload.QFT(cfg.Grid.Tiles())
		ops := prog.Ops
		for i := 1; i < passes; i++ {
			prog.Ops = append(prog.Ops, ops...)
		}
		var runErr error
		n := testing.AllocsPerRun(2, func() {
			if _, err := run(cfg, prog); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		return n
	}
	for _, tc := range []struct {
		layout     Layout
		base, most int // passes of the reference run and of the longest
	}{
		{HomeBase, 1, 4},
		{MobileQubit, 2, 4},
	} {
		base, most := allocs(tc.layout, tc.base), allocs(tc.layout, tc.most)
		if most > 1.1*base {
			t.Errorf("6x6 %v QFT-36: %.0f allocs over %d passes, %.0f over %d, want within 10%%",
				tc.layout, most, tc.most, base, tc.base)
		}
		t.Logf("6x6 %v QFT-36: %.0f allocs over %d passes, %.0f over %d", tc.layout, base, tc.base, most, tc.most)
	}
}

// maxRunBytes bounds the bytes one 8x8 HomeBase QFT-64 run at t=21,
// g=21, p=5 (Figure 16's t=g=4p allocation) allocates.  HomeBase QFT
// opens a channel over every ordered pair of home tiles once, so the
// run caches about 4,000 routes and replays none: the bound holds only
// while the route cache stores a byte per hop and no visited tile, no
// route check builds a tile list, and no waiter queue grows a buffer.
const maxRunBytes = 1 << 20

// TestRunBytesStayBounded pins the byte-per-hop route cache by the
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

//go:build !race

// The race detector instruments allocations, so this guard builds only
// without -race.

package simulate

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/qnet"
	"repro/qnet/route"
	"repro/qnet/trace"
)

// maxKeyAllocs bounds the allocations of one cache key.  The 8x8
// QFT-64 key hashes over 32 KB in about 4,000 fields, so one
// allocation per field would exceed it by three orders of magnitude:
// the bound holds only while keyFor appends every field into one
// buffer sized for the whole stream, which is its one allocation.
const maxKeyAllocs = 4

// TestCacheKeyAllocations pins the allocation-free field path of
// keyFor.
func TestCacheKeyAllocations(t *testing.T) {
	m, prog := keyQFT64(t)
	allocs := testing.AllocsPerRun(10, func() { m.CacheKey(prog) })
	if allocs > maxKeyAllocs {
		t.Fatalf("one 8x8 QFT-64 cache key made %.0f allocations, want <= %d", allocs, maxKeyAllocs)
	}
}

// distribSpace is the repository benchmark's distributed sweep space:
// 4x4 QFT-16 x 2 layouts x 2 allocations x depths {1,2,3} x 4 routing
// policies x 4 seeds, 1% purification failure, 192 points with a key
// each.
func distribSpace(t *testing.T) Space {
	grid := testGrid(t, 4)
	allocs, err := Allocations(48, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	return Space{
		Grids:     []qnet.Grid{grid},
		Layouts:   []Layout{HomeBase, MobileQubit},
		Resources: []Resources{AllocationResources(allocs[0]), AllocationResources(allocs[1])},
		Programs:  []qnet.Program{qnet.QFT(grid.Tiles())},
		Depths:    []int{1, 2, 3},
		Routings:  route.Policies(),
		Seeds:     SeedRange(4),
		Options:   []Option{WithFailureRate(0.01)},
	}
}

// expandFixedAllocs bounds the allocations one Space.Expand makes
// whatever the number of entries: its result slices, the one slice of
// machines, the flight group, the fingerprints, the device part of the
// keys, and each worker's goroutine and key buffer.
const expandFixedAllocs = 32

// expandCost returns the allocations and bytes one Space.Expand of
// indices makes with a store attached, over two workers.
func expandCost(t *testing.T, space Space, indices []int) (allocs float64, bytes uint64) {
	t.Helper()
	store := NewCache(0)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, func() {
		if _, _, _, err := space.Expand(indices, store, 2); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun runs the function once more to warm up.
	return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
}

// TestExpandAllocations: on the benchmark's 192-point distributed space
// with a store attached, Space.Expand makes the same fixed few
// allocations for the whole space as for a 12-index shard, none per
// listed point.  On a space 16 times larger the shard keeps that bound
// and allocates at most twice its bytes, since Expand decodes only the
// points it is given (the slack absorbs the runtime's own allocations).
func TestExpandAllocations(t *testing.T) {
	space := distribSpace(t)
	shard := make([]int, 12)
	for i := range shard {
		shard[i] = 16 * i
	}
	var shardBytes uint64
	for _, indices := range [][]int{allIndices(space.Size()), shard} {
		allocs, bytes := expandCost(t, space, indices)
		if allocs > expandFixedAllocs {
			t.Errorf("expanding %d of %d points made %.0f allocations, want <= %d", len(indices), space.Size(), allocs, expandFixedAllocs)
		}
		shardBytes = bytes
	}
	large := space
	large.Seeds = SeedRange(16 * len(space.Seeds))
	allocs, bytes := expandCost(t, large, shard)
	if allocs > expandFixedAllocs || bytes > 2*shardBytes {
		t.Errorf("a %d-index shard of %d points made %.0f allocations of %d bytes, want <= %d allocations and <= twice the %d bytes it takes of %d points",
			len(shard), large.Size(), allocs, bytes, expandFixedAllocs, shardBytes, space.Size())
	}
}

// maxTraceAllocs bounds what tracing adds to a run's allocations: the
// series Bind allocates once, whatever the run's length or interval.
const maxTraceAllocs = 16

// TestTraceAllocations pins that a traced run allocates at most
// maxTraceAllocs objects more than the same run untraced, sampling
// finely (1µs, where the series fills and halves seven times) and
// coarsely (1ms).
func TestTraceAllocations(t *testing.T) {
	m, prog := tracedQFT25(t)
	ctx := context.Background()
	run := func(m *Machine) func() {
		return func() {
			if _, err := m.Run(ctx, prog); err != nil {
				t.Fatal(err)
			}
		}
	}
	plain := testing.AllocsPerRun(3, run(m))
	for _, iv := range []time.Duration{time.Microsecond, time.Millisecond} {
		traced := testing.AllocsPerRun(3, run(m.WithTrace(trace.New(trace.Config{Interval: iv}))))
		if traced > plain+maxTraceAllocs {
			t.Errorf("traced at %v: %.0f allocations, untraced %.0f, want at most %d more", iv, traced, plain, maxTraceAllocs)
		}
	}
}

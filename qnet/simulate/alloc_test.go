//go:build !race

// The race detector instruments allocations, so this guard builds only
// without -race.

package simulate

import "testing"

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

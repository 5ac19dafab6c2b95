package netsim

import (
	"math"

	"repro/internal/mesh"
)

// routeCache memoizes the hop paths of a deterministic routing policy
// for one simulator run.  Deterministic policies (route.IsDeterministic)
// answer every repeated (src, dst) query identically, yet the paper's
// workloads open thousands of channels over a handful of distinct
// pairs — so the simulator resolves each pair once and replays the
// stored path for every later channel, skipping the policy call, the
// Follow validation walk and the per-channel path allocation.
//
// Only hop directions are stored: a batch walks its tiles from the
// channel source by stepping one direction per hop, so the visited
// tiles need no memory of their own.  Paths live back to back in one
// flat arena; the span table is dense over src×dst tile indices, so a
// lookup is two array reads with no map hashing.  The cache is strictly
// per-simulator state: concurrent sweep workers each own their run's
// cache, so there is no shared mutable state across goroutines.
type routeCache struct {
	tiles int // grid tile count (span table stride)
	spans []cacheSpan
	// arena holds every cached path back to back.  It only ever
	// appends, so slices handed out by get stay valid across growth
	// (they keep referencing the old backing array).
	arena []mesh.Direction
}

// cacheSpan locates one cached path inside the arena.  n == 0 means
// "not cached": a real path always has at least one hop, because the
// simulator never opens a channel from a tile to itself.
type cacheSpan struct {
	off, n int32
}

// newRouteCache builds an empty cache for a grid of the given tile
// count.
func newRouteCache(tiles int) *routeCache {
	return &routeCache{tiles: tiles, spans: make([]cacheSpan, tiles*tiles)}
}

// get returns the cached path for srcIdx→dstIdx, or nil on a miss.  The
// returned slice is a capacity-capped view into the arena; callers must
// treat it as read-only.
func (rc *routeCache) get(srcIdx, dstIdx int) []mesh.Direction {
	sp := rc.spans[srcIdx*rc.tiles+dstIdx]
	if sp.n == 0 {
		return nil
	}
	return rc.arena[sp.off : sp.off+sp.n : sp.off+sp.n]
}

// put stores a validated path for srcIdx→dstIdx.  Empty paths are
// never stored (the zero span means "absent"), and a path that would
// push the arena past the int32 offset range is silently not cached —
// the cache is an optimization, never a correctness requirement.
func (rc *routeCache) put(srcIdx, dstIdx int, dirs []mesh.Direction) {
	if len(dirs) == 0 || len(rc.arena)+len(dirs) > math.MaxInt32 {
		return
	}
	rc.spans[srcIdx*rc.tiles+dstIdx] = cacheSpan{off: int32(len(rc.arena)), n: int32(len(dirs))}
	rc.arena = append(rc.arena, dirs...)
}

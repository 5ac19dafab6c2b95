// The pluggable result-store seam of the sweep engine.
//
// PR 2 made every run content-addressable (cache.go); this file
// extracts the minimal interface the engine actually needs from a
// result store, so the in-memory/on-disk Cache is just one
// implementation.  qnet/distrib adds an HTTP-backed RemoteStore behind
// the same three methods, letting a fleet of worker processes share a
// single warm store.

package simulate

// Store is a content-addressed result store: the pluggable persistence
// seam behind WithCache and WithStore.  Cache is the shipped
// in-memory/on-disk implementation; qnet/distrib.RemoteStore speaks the
// same interface over HTTP so a worker fleet shares one warm store.
//
// Implementations must be safe for concurrent use, and both Get and
// Put must be best-effort: a store that cannot serve a key reports a
// miss (never an error), and a failed Put must not fail the
// simulation.  Two runs with equal Keys are guaranteed identical, so a
// Store may serve any previously Put value for a key, from any
// process or host.
type Store interface {
	// Get returns the stored Result for the key, if present.
	Get(Key) (Result, bool)
	// Put stores the Result under the key (best effort).
	Put(Key, Result)
	// Stats returns a snapshot of the store's traffic counters.
	Stats() CacheStats
}

// Cache implements Store.
var _ Store = (*Cache)(nil)

// WithStore attaches an arbitrary result Store to a Machine or a
// Sweep: the generalization of WithCache to stores that are not the
// shipped Cache, such as qnet/distrib.RemoteStore (a worker fleet's
// shared HTTP store).  Semantics match WithCache exactly: lookups
// before simulating, successful runs stored back, served points marked
// Cached.  A nil store attaches none.
func WithStore(st Store) CacheOption {
	return cacheOption{store: st}
}

package simulate

import (
	"context"
	"sync"
	"testing"

	"repro/qnet"
	"repro/qnet/route"
)

// TestSweepRoutingDimension expands a multi-policy space and asserts
// the routing dimension behaves like every other dimension: the point
// count multiplies, every point carries its policy, distinct policies
// produce distinct cache keys (so the shared cache can never serve one
// policy's result for another), and identical keys only ever come from
// identical policies.
func TestSweepRoutingDimension(t *testing.T) {
	grid := testGrid(t, 4)
	policies := route.Policies()
	space := Space{
		Grids:     []qnet.Grid{grid},
		Layouts:   []Layout{HomeBase},
		Resources: []Resources{{Teleporters: 8, Generators: 8, Purifiers: 4}},
		Programs:  []qnet.Program{qnet.QFT(grid.Tiles())},
		Routings:  policies,
	}
	if space.Size() != len(policies) {
		t.Fatalf("Size() = %d, want %d", space.Size(), len(policies))
	}
	cache := NewCache(0)
	points, err := Sweep(context.Background(), space, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(policies) {
		t.Fatalf("%d points, want %d", len(points), len(policies))
	}
	keys := make(map[Key]string, len(points))
	for _, pt := range points {
		if pt.Err != nil {
			t.Fatalf("%s: %v", pt.Point.RoutingName(), pt.Err)
		}
		m, err := space.Machine(pt.Point)
		if err != nil {
			t.Fatal(err)
		}
		key := m.CacheKey(pt.Point.Program)
		if prev, dup := keys[key]; dup {
			t.Fatalf("policies %s and %s share cache key %s — cached results would cross policies",
				prev, pt.Point.RoutingName(), key)
		}
		keys[key] = pt.Point.RoutingName()
	}
	// Every policy simulated exactly once: all misses, no hits.
	if s := cache.Stats(); s.Hits != 0 || s.Misses != uint64(len(policies)) {
		t.Errorf("cache traffic %v, want 0 hits / %d misses", s, len(policies))
	}
	// A repeated sweep is served entirely from the cache, per policy.
	again, err := Sweep(context.Background(), space, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range again {
		if !pt.Cached {
			t.Errorf("%s: warm point not served from cache", pt.Point.RoutingName())
		}
		if pt.Result != points[i].Result {
			t.Errorf("%s: warm result differs from cold", pt.Point.RoutingName())
		}
	}
}

// TestSweepByDistanceDimension sweeps the per-channel composite policy
// as a routing dimension: distinct thresholds get distinct cache keys,
// and a threshold above every channel distance routes exactly like the
// short policy alone (identical result and identical utilisation).
func TestSweepByDistanceDimension(t *testing.T) {
	grid := testGrid(t, 4)
	near, err := route.ByDistance(route.XYOrder(), route.YXOrder(), 3)
	if err != nil {
		t.Fatal(err)
	}
	far, err := route.ByDistance(route.XYOrder(), route.YXOrder(), 99)
	if err != nil {
		t.Fatal(err)
	}
	space := Space{
		Grids:     []qnet.Grid{grid},
		Layouts:   []Layout{HomeBase},
		Resources: []Resources{{Teleporters: 8, Generators: 8, Purifiers: 4}},
		Programs:  []qnet.Program{qnet.QFT(grid.Tiles())},
		Routings:  []route.Policy{route.XYOrder(), near, far},
	}
	points, err := Sweep(context.Background(), space)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points, want 3", len(points))
	}
	keys := make(map[Key]string, len(points))
	results := make(map[string]Result, len(points))
	for _, pt := range points {
		if pt.Err != nil {
			t.Fatalf("%s: %v", pt.Point.RoutingName(), pt.Err)
		}
		m, err := space.Machine(pt.Point)
		if err != nil {
			t.Fatal(err)
		}
		key := m.CacheKey(pt.Point.Program)
		if prev, dup := keys[key]; dup {
			t.Fatalf("policies %s and %s share cache key %s", prev, pt.Point.RoutingName(), key)
		}
		keys[key] = pt.Point.RoutingName()
		results[pt.Point.RoutingName()] = pt.Result
	}
	// Threshold 99 exceeds every Manhattan distance on a 4x4 grid, so
	// the composite degenerates to pure XY.
	if results["bydist(xy,yx,99)"] != results["xy"] {
		t.Error("bydist with unreachable threshold differs from the pure short policy")
	}
	// Threshold 3 splits the channels between XY and YX, which changes
	// turn counts on this workload; the result must differ from pure XY.
	if results["bydist(xy,yx,3)"] == results["xy"] {
		t.Error("bydist with a splitting threshold routed identically to pure XY")
	}
}

// TestSweepRoutingDefaultMatchesExplicitXY asserts the nil default of
// the routing dimension and an explicit XYOrder produce identical
// results and identical cache keys.
func TestSweepRoutingDefaultMatchesExplicitXY(t *testing.T) {
	grid := testGrid(t, 4)
	prog := qnet.QFT(grid.Tiles())
	def, err := New(grid, HomeBase)
	if err != nil {
		t.Fatal(err)
	}
	xy, err := New(grid, HomeBase, WithRouting(route.XYOrder()))
	if err != nil {
		t.Fatal(err)
	}
	if def.CacheKey(prog) != xy.CacheKey(prog) {
		t.Error("nil default and explicit XYOrder hash differently")
	}
	a, err := def.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := xy.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("nil default and explicit XYOrder produce different results")
	}
}

// TestCacheMachineRunConsultsAttachedCache asserts Machine.Run serves
// warm runs from the cache installed with WithCache: the second run is
// a hit, returns the identical result, and a Session on the same
// machine shares the attachment.
func TestCacheMachineRunConsultsAttachedCache(t *testing.T) {
	grid := testGrid(t, 4)
	prog := qnet.QFT(grid.Tiles())
	cache := NewCache(0)
	m, err := New(grid, HomeBase, WithResources(8, 8, 4), WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if m.Cache() != cache {
		t.Fatal("Cache() does not return the attached cache")
	}
	cold, err := m.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after cold run: %v, want 1 miss", s)
	}
	warm, err := m.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Error("warm run differs from cold run")
	}
	if s := cache.Stats(); s.Hits != 1 {
		t.Errorf("after warm run: %v, want 1 hit", s)
	}
	// Sessions derive distinct per-run seeds; with failure injection
	// off the key canonicalizes the seed away, so session runs hit the
	// same entry.
	if _, err := m.NewSession().Run(context.Background(), prog); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Hits != 2 {
		t.Errorf("after session run: %v, want 2 hits", s)
	}
}

// TestCacheMachineRunConcurrentSimulatesOnce asserts concurrent Runs
// of one key on a cached machine share its single-flight group: one
// simulates and stores, the rest wait and are served from the cache.
func TestCacheMachineRunConcurrentSimulatesOnce(t *testing.T) {
	grid := testGrid(t, 4)
	prog := qnet.QFT(grid.Tiles())
	cache := NewCache(0)
	m, err := New(grid, HomeBase, WithResources(8, 8, 4), WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 4
	results := make([]Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	wg.Add(runs)
	for i := 0; i < runs; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = m.Run(context.Background(), prog)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != results[0] {
			t.Errorf("run %d differs from run 0", i)
		}
	}
	if s := cache.Stats(); s.Misses != 1 || s.Hits != runs-1 {
		t.Errorf("cache traffic %v, want 1 miss and %d hits", s, runs-1)
	}
}

// TestCacheMachineRunDiskWarm asserts the cross-process story behind
// `qnetsim -cache-dir`: a second machine built on a fresh cache over the
// same directory serves the first machine's result from disk.
func TestCacheMachineRunDiskWarm(t *testing.T) {
	grid := testGrid(t, 4)
	prog := qnet.QFT(grid.Tiles())
	dir := t.TempDir()
	onDir := func() Option {
		t.Helper()
		c, err := NewDiskCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return WithCache(c)
	}
	cold, err := New(grid, HomeBase, WithResources(8, 8, 4), onDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cold.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := New(grid, HomeBase, WithResources(8, 8, 4), onDir())
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if got != res {
		t.Error("disk-warm run differs from the original")
	}
	if s := warm.Cache().Stats(); s.Hits != 1 || s.DiskHits != 1 {
		t.Errorf("warm machine stats %v, want 1 disk hit", s)
	}
}

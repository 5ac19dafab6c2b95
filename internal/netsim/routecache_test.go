package netsim

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/workload"

	"repro/qnet/route"
)

func TestRouteCacheRoundTrip(t *testing.T) {
	rc := newRouteCache(9) // 3x3 grid
	if d := rc.get(0, 8); d != nil {
		t.Fatal("empty cache returned a path")
	}
	dirs := []mesh.Direction{mesh.East, mesh.East, mesh.South}
	rc.put(0, 5, dirs)
	got := rc.get(0, 5)
	if len(got) != len(dirs) {
		t.Fatalf("got %d dirs, want %d", len(got), len(dirs))
	}
	for i := range dirs {
		if got[i] != dirs[i] {
			t.Errorf("dir %d = %v, want %v", i, got[i], dirs[i])
		}
	}
	// Other pairs stay misses; the reverse direction is its own entry.
	if d := rc.get(5, 0); d != nil {
		t.Error("reverse pair should miss")
	}
	// Arena growth must not corrupt previously returned spans.
	for i := 0; i < 64; i++ {
		rc.put(1, 2+i%6, dirs)
	}
	got2 := rc.get(0, 5)
	for i := range dirs {
		if got2[i] != dirs[i] {
			t.Fatalf("span corrupted after arena growth at dir %d", i)
		}
	}
}

// TestRouteCachePutRejectsMalformed checks an empty path is never
// stored: the zero span is the cache's "absent" marker.
func TestRouteCachePutRejectsMalformed(t *testing.T) {
	rc := newRouteCache(4)
	rc.put(0, 1, nil)
	if d := rc.get(0, 1); d != nil {
		t.Error("empty path was stored")
	}
}

// TestRouteCacheEnabledPerPolicy pins the capability gating end to
// end: a simulator built with a deterministic policy owns a route
// cache, an adaptive one must not (its paths depend on live loads).
func TestRouteCacheEnabledPerPolicy(t *testing.T) {
	grid, err := mesh.NewGrid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.QFT(9)
	for _, tc := range []struct {
		p      route.Policy
		cached bool
	}{
		{nil, true}, // nil resolves to the deterministic default
		{route.XYOrder(), true},
		{route.ZigZag(), true},
		{route.LeastCongested(), false},
	} {
		cfg := DefaultConfig(grid, HomeBase, 8, 8, 4)
		cfg.Route = tc.p
		s := &simulator{cfg: cfg, engine: sim.New()}
		if err := s.build(prog); err != nil {
			t.Fatal(err)
		}
		if got := s.routes != nil; got != tc.cached {
			t.Errorf("policy %s: cache present = %v, want %v", route.NameOf(tc.p), got, tc.cached)
		}
	}
}

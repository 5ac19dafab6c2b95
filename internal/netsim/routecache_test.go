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
	if d, ti := rc.get(0, 8); d != nil || ti != nil {
		t.Fatal("empty cache returned a path")
	}
	dirs := []mesh.Direction{mesh.East, mesh.East, mesh.South}
	tiles := []mesh.Coord{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 1}}
	rc.put(0, 5, dirs, tiles)
	gd, gt := rc.get(0, 5)
	if len(gd) != 3 || len(gt) != 4 {
		t.Fatalf("got %d dirs / %d tiles, want 3 / 4", len(gd), len(gt))
	}
	for i := range dirs {
		if gd[i] != dirs[i] {
			t.Errorf("dir %d = %v, want %v", i, gd[i], dirs[i])
		}
	}
	for i := range tiles {
		if gt[i] != tiles[i] {
			t.Errorf("tile %d = %v, want %v", i, gt[i], tiles[i])
		}
	}
	// Other pairs stay misses; the reverse direction is its own entry.
	if d, _ := rc.get(5, 0); d != nil {
		t.Error("reverse pair should miss")
	}
	// Arena growth must not corrupt previously returned spans.
	for i := 0; i < 64; i++ {
		rc.put(1, 2+i%6, dirs, tiles)
	}
	gd2, _ := rc.get(0, 5)
	for i := range dirs {
		if gd2[i] != dirs[i] {
			t.Fatalf("span corrupted after arena growth at dir %d", i)
		}
	}
}

func TestRouteCachePutRejectsMalformed(t *testing.T) {
	rc := newRouteCache(4)
	rc.put(0, 1, nil, []mesh.Coord{{}})
	rc.put(0, 1, []mesh.Direction{mesh.East}, []mesh.Coord{{}}) // tiles != dirs+1
	if d, _ := rc.get(0, 1); d != nil {
		t.Error("malformed put was stored")
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

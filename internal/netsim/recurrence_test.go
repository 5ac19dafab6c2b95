package netsim

import (
	"context"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/workload"

	"repro/qnet/channel"
)

// TestChannelMatchesRecurrence checks one channel on an idle mesh
// against channel.Plan, an exact model that shares none of the
// datapath's code: alone on the mesh, every stage serves all of a
// channel's batches for the same time, so the batches keep their order
// at every FIFO stage and their grant times follow a max-plus
// recurrence.  The simulated latency must equal the planned one to the
// nanosecond, on straight one-row paths and on L-shaped xy paths that
// turn once, at allocations from one unit of each resource to 1024,
// Figure 16's included.
func TestChannelMatchesRecurrence(t *testing.T) {
	paths := [][2]int{{1, 0}, {2, 0}, {3, 0}, {5, 0}, {7, 0}, {15, 0}, {1, 1}, {2, 3}, {4, 2}}
	allocs := [][3]int{
		{1, 1, 1}, {2, 2, 2}, {4, 4, 4}, {16, 16, 16}, {19, 19, 9},
		{21, 21, 5}, {23, 23, 2}, {24, 24, 16}, {1024, 1024, 1024},
	}
	for _, xy := range paths {
		dx, dy := xy[0], xy[1]
		g := grid(t, dx+1, dy+1)
		dst := mesh.Coord{X: dx, Y: dy}
		for _, a := range allocs {
			cfg := DefaultConfig(g, HomeBase, a[0], a[1], a[2])
			got := idleChannelLatency(t, cfg, dst)
			if want := planned(t, cfg, mesh.Coord{}, dst); got != want {
				t.Errorf("(%d,%d) hops at %d/%d/%d: simulated %v, planned %v (off by %v)",
					dx, dy, a[0], a[1], a[2], got, want, got-want)
			}
		}
	}
}

// idleChannelLatency opens one channel from the corner tile to dst on
// an otherwise idle mesh and returns the time its data arrives.
func idleChannelLatency(t *testing.T, cfg Config, dst mesh.Coord) time.Duration {
	t.Helper()
	s := &simulator{cfg: cfg, engine: sim.New()}
	if err := s.build(workload.Program{Name: "idle", Qubits: 1}); err != nil {
		t.Fatal(err)
	}
	got := time.Duration(-1)
	s.channel(mesh.Coord{}, dst, func() { got = s.engine.Now() })
	if err := s.engine.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got < 0 {
		t.Fatalf("channel to %v never delivered", dst)
	}
	return got
}

// planned returns channel.Plan's latency, setup and data, of the
// channel from src to dst on cfg's mesh at cfg's resources and purify
// depth.
func planned(t *testing.T, cfg Config, src, dst mesh.Coord) time.Duration {
	t.Helper()
	ch, err := channel.Plan(channel.Spec{
		Params: cfg.Params, Grid: cfg.Grid, Src: src, Dst: dst, Route: cfg.Route,
		TurnCells: cfg.TurnCells, HopCells: cfg.HopCells, CodeLevel: cfg.CodeLevel, PurifyDepth: cfg.PurifyDepth,
		Teleporters: cfg.Teleporters, Generators: cfg.Generators, Purifiers: cfg.Purifiers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ch.SetupLatency + ch.DataLatency
}

package netsim

import (
	"context"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestChannelMatchesRecurrence checks one channel on an idle mesh
// against an exact model that shares none of the datapath's code. Alone
// on the mesh, every stage serves all of a channel's batches for the
// same time, so the batches keep their order at every FIFO stage and
// their grant times follow a max-plus recurrence (see recurrence). The
// simulated latency must equal the recurrence's to the nanosecond, on
// straight one-row paths and on L-shaped xy paths that turn once, at
// allocations from one unit of each resource to 1024, Figure 16's
// included.
func TestChannelMatchesRecurrence(t *testing.T) {
	paths := [][2]int{{1, 0}, {2, 0}, {3, 0}, {5, 0}, {7, 0}, {15, 0}, {1, 1}, {2, 3}, {4, 2}}
	allocs := [][3]int{
		{1, 1, 1}, {2, 2, 2}, {4, 4, 4}, {16, 16, 16}, {19, 19, 9},
		{21, 21, 5}, {23, 23, 2}, {24, 24, 16}, {1024, 1024, 1024},
	}
	for _, xy := range paths {
		dx, dy := xy[0], xy[1]
		g := grid(t, dx+1, dy+1)
		// An xy path runs dx hops east, then dy hops south, turning
		// once at the hop that leaves the corner tile.
		turn := make([]bool, dx+dy)
		if dx > 0 && dy > 0 {
			turn[dx] = true
		}
		for _, a := range allocs {
			cfg := DefaultConfig(g, HomeBase, a[0], a[1], a[2])
			got := idleChannelLatency(t, cfg, mesh.Coord{X: dx, Y: dy})
			if want := recurrence(cfg, turn); got != want {
				t.Errorf("(%d,%d) hops at %d/%d/%d: simulated %v, recurrence %v (off by %v)",
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

// recurrence returns the latency of one channel alone on an idle mesh
// over a path of len(turn) hops, where turn[k] reports that hop k
// changes axis. Batch j (of 7^CodeLevel) takes, at hop k:
//
//   - a storage slot of the receiving tile, A(j,k) = max(R(j,k),
//     Rel(j−W,k)), where R is the time the batch reaches the hop (0 at
//     the source, else the end of its previous teleport) and Rel(j,k)
//     the time it frees that slot: W = max(1, ⌊t/2^d⌋) slots;
//   - a generator, G(j,k) = max(A(j,k), G(j−g,k)+γ), held for
//     γ = GenerateTime·⌈2^d/g⌉;
//   - a teleporter of the sending tile's set, T(j,k) = max(G(j,k)+γ,
//     T(j−s,k)+τ_k), held for τ_k = TeleportTime(HopCells)·⌈2^d/s⌉
//     plus BallisticTime(TurnCells) on a turn, with s = max(1, ⌊t/2⌋);
//     the slot of the previous hop frees at its end, Rel(j,k−1) =
//     T(j,k)+τ_k.
//
// After the last hop and the correction κ = 2·OneQubitGate, the batch
// takes both endpoint purifiers, P(j) = max(arrival+κ, P(j−p)+π),
// with π = PurifyRoundTime(h·HopCells)·(2^(d−1)+d−1), and frees its
// last slot, Rel(j,h−1) = P(j). The data teleports once every batch is
// purified: the latency is max_j P(j) + π + TeleportTime(h·HopCells) +
// h·HopCells·ClassicalBitPerCell.
func recurrence(cfg Config, turn []bool) time.Duration {
	p := cfg.Params
	d := cfg.PurifyDepth
	pairs := 1 << d
	perUnit := func(units int) time.Duration { return time.Duration((pairs + units - 1) / units) }
	window := max(1, cfg.Teleporters/pairs)
	set := max(1, cfg.Teleporters/2)
	gamma := p.GenerateTime() * perUnit(cfg.Generators)
	h := len(turn)
	tau := make([]time.Duration, h)
	for k := range tau {
		tau[k] = p.TeleportTime(cfg.HopCells) * perUnit(set)
		if turn[k] {
			tau[k] += p.BallisticTime(cfg.TurnCells)
		}
	}
	kappa := 2 * p.Times.OneQubitGate
	cells := h * cfg.HopCells
	pi := p.PurifyRoundTime(cells) * time.Duration(1<<(d-1)+d-1)

	batches := 1
	for i := 0; i < cfg.CodeLevel; i++ {
		batches *= 7
	}
	gen := make([][]time.Duration, batches)
	tel := make([][]time.Duration, batches)
	rel := make([][]time.Duration, batches)
	pur := make([]time.Duration, batches)
	var last time.Duration
	for j := range batches {
		gen[j] = make([]time.Duration, h)
		tel[j] = make([]time.Duration, h)
		rel[j] = make([]time.Duration, h)
		var reach time.Duration
		for k := 0; k < h; k++ {
			gen[j][k] = reach
			if j >= window {
				gen[j][k] = max(gen[j][k], rel[j-window][k])
			}
			if j >= cfg.Generators {
				gen[j][k] = max(gen[j][k], gen[j-cfg.Generators][k]+gamma)
			}
			tel[j][k] = gen[j][k] + gamma
			if j >= set {
				tel[j][k] = max(tel[j][k], tel[j-set][k]+tau[k])
			}
			reach = tel[j][k] + tau[k]
			if k > 0 {
				rel[j][k-1] = reach
			}
		}
		pur[j] = reach + kappa
		if j >= cfg.Purifiers {
			pur[j] = max(pur[j], pur[j-cfg.Purifiers]+pi)
		}
		rel[j][h-1] = pur[j]
		last = max(last, pur[j])
	}
	return last + pi + p.TeleportTime(cells) + time.Duration(cells)*p.Times.ClassicalBitPerCell
}

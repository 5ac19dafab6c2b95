package netsim

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/workload"

	"repro/qnet/route"
)

// twoQubitProgram is a single op between qubits a and b, so a HomeBase
// run performs exactly two channels (there and back) over known
// endpoints.
func twoQubitProgram(qubits, a, b int) workload.Program {
	return workload.Program{Name: "pair", Qubits: qubits, Ops: []workload.Op{{A: a, B: b}}}
}

// runTurns executes the program under the policy and returns the
// result plus the per-tile turn counts.
func runTurns(t *testing.T, grid mesh.Grid, p route.Policy, prog workload.Program) (Result, *Detail) {
	t.Helper()
	cfg := DefaultConfig(grid, HomeBase, 16, 16, 8)
	cfg.Route = p
	res, detail, err := RunDetailed(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return res, detail
}

// TestTurnPenaltyChargedOncePerDirectionChange asserts, for every
// routing policy, that the simulator charges the ballistic turn
// penalty exactly once per direction change of the routed path: the
// run's total turn count equals (turns on the forward path + turns on
// the return path) × the batches per channel, and the per-node counts
// sum to the same total (each charge is counted at exactly one node).
func TestTurnPenaltyChargedOncePerDirectionChange(t *testing.T) {
	grid, err := mesh.NewGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Row-major homes: qubit 0 at (0,0), qubit 15 at (3,3).  HomeBase
	// routes B to A's home and back.
	prog := twoQubitProgram(16, 0, 15)
	src := mesh.Coord{X: 3, Y: 3}
	dst := mesh.Coord{X: 0, Y: 0}
	const batches = 49 // level-2 Steane: pairs per logical teleport

	for _, p := range []route.Policy{nil, route.XYOrder(), route.YXOrder(), route.ZigZag()} {
		name := route.NameOf(p)
		policy := p
		if policy == nil {
			policy = route.Default()
		}
		there, err := policy.Route(grid, src, dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		back, err := policy.Route(grid, dst, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(route.Turns(there)+route.Turns(back)) * batches

		res, detail := runTurns(t, grid, p, prog)
		if res.Turns != want {
			t.Errorf("%s: Result.Turns = %d, want %d (%d+%d path turns × %d batches)",
				name, res.Turns, want, route.Turns(there), route.Turns(back), batches)
		}
		var perNode uint64
		for _, n := range detail.Turns {
			perNode += n
		}
		if perNode != res.Turns {
			t.Errorf("%s: per-node turn counts sum to %d, Result.Turns is %d — a turn was double- or un-counted",
				name, perNode, res.Turns)
		}
	}
}

// TestStraightLinePathsPayNoTurnPenalty asserts the zero-turn case:
// qubits in one row route straight under every policy (including the
// adaptive one, which has no legal detour on a straight line), so no
// turn is ever charged.
func TestStraightLinePathsPayNoTurnPenalty(t *testing.T) {
	grid, err := mesh.NewGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	prog := twoQubitProgram(16, 0, 3) // homes (0,0) and (3,0): same row
	for _, p := range []route.Policy{nil, route.XYOrder(), route.YXOrder(), route.ZigZag(), route.LeastCongested()} {
		res, detail := runTurns(t, grid, p, prog)
		if res.Turns != 0 {
			t.Errorf("%s: straight-line run charged %d turns, want 0", route.NameOf(p), res.Turns)
		}
		for i, n := range detail.Turns {
			if n != 0 {
				t.Errorf("%s: node %v counted %d turns on a straight-line run",
					route.NameOf(p), grid.CoordOf(i), n)
			}
		}
	}
}

// TestAdaptivePolicyStaysMinimalUnderContention runs the adaptive
// policy on a full workload and asserts the minimality invariant the
// other tests check statically: pair-hops (path length × batches)
// match the dimension-order run exactly, even though the turn pattern
// may differ.
func TestAdaptivePolicyStaysMinimalUnderContention(t *testing.T) {
	grid, err := mesh.NewGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.QFT(16)
	cfg := DefaultConfig(grid, HomeBase, 16, 16, 8)
	base, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Route = route.LeastCongested()
	adaptive, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.PairHops != base.PairHops {
		t.Errorf("adaptive PairHops = %d, xy = %d: adaptive routing must stay minimal",
			adaptive.PairHops, base.PairHops)
	}
	if adaptive.Channels != base.Channels || adaptive.PairsDelivered != base.PairsDelivered {
		t.Errorf("adaptive routing changed traffic totals: %+v vs %+v", adaptive, base)
	}
}

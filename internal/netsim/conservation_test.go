package netsim

import (
	"context"
	"testing"

	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/route"
	"repro/internal/workload"
)

// TestRunConservesResources is the end-of-run conservation check: a run
// that completes must leave the simulator fully drained — no pending
// event, no channel or gate in flight, every router's teleporter sets
// and storage credits returned, every purifier and generator idle with
// an empty queue, and every batch record back on the free list.  A
// leaked credit or a lost batch shows up here even when the Result
// still looks plausible.  The cases cover every routing family on both
// layouts, the resource-starved corner of Figure 16, and the fault and
// failure-injection resend paths.
//
// On meshes without dead links every policy routes minimally, so the
// channel and pair-hop counts are also accounted for from the program
// alone, by replaying its qubit moves (replayHomeBase, replayMobile):
// every channel carries every batch's pairs over the Manhattan distance
// it spans, and each resent batch (failed or dropped) adds between one
// hop and a mesh diameter of hops.
func TestRunConservesResources(t *testing.T) {
	g := grid(t, 6, 6)
	prog := workload.QFT(g.Tiles())
	replays := map[Layout]replay{
		HomeBase:    replayHomeBase(t, g, prog),
		MobileQubit: replayMobile(t, g, prog),
	}
	faulty := fault.Spec{DeadLinks: 0.05, Drop: 0.02}
	cases := []struct {
		name    string
		route   route.Policy
		spec    fault.Spec
		rate    float64
		t, g, p int
	}{
		{name: "xy-healthy"},
		{name: "zigzag-healthy", route: route.ZigZag()},
		{name: "least-congested-healthy", route: route.LeastCongested()},
		{name: "fault-adaptive-faulty", route: route.FaultAdaptive(), spec: faulty},
		{name: "fault-adaptive-stochastic", route: route.FaultAdaptive(), spec: faulty, rate: 0.1},
		{name: "xy-starved", t: 2, g: 2, p: 1},
		{name: "least-congested-lossy", route: route.LeastCongested(), spec: fault.Spec{Drop: 0.01}},
		{name: "xy-failing", rate: 0.2},
	}
	for _, layout := range []Layout{HomeBase, MobileQubit} {
		for _, tc := range cases {
			t.Run(layout.String()+"/"+tc.name, func(t *testing.T) {
				cfg := DefaultConfig(g, layout, 16, 16, 8)
				if tc.t > 0 {
					cfg.Teleporters, cfg.Generators, cfg.Purifiers = tc.t, tc.g, tc.p
				}
				cfg.Route = tc.route
				cfg.Faults = tc.spec
				cfg.PurifyFailureRate = tc.rate
				cfg.Seed = 7
				s, err := execute(context.Background(), cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				assertDrained(t, s)
				// Guard against a vacuous case: the lossy and failing
				// configurations must actually take their resend paths.
				if tc.spec.Drop > 0 && s.droppedBatches == 0 {
					t.Error("lossy case dropped no batch")
				}
				if tc.rate > 0 && s.failedBatches == 0 {
					t.Error("failing case failed no batch")
				}
				if tc.spec.DeadLinks == 0 {
					assertPairHops(t, s, cfg, replays[layout])
				}
			})
		}
	}
}

// replay is a program's resend-free channel load: the channels its
// layout opens and their summed Manhattan length in hops.
type replay struct {
	channels uint64
	hops     int
}

// move accounts one qubit teleport from a to b; a local move opens no
// channel.
func (r *replay) move(a, b mesh.Coord) {
	if a != b {
		r.channels++
		r.hops += mesh.Manhattan(a, b)
	}
}

// replayHomeBase replays prog under HomeBase from the row-major homes:
// every op teleports B from its home to A's home and back.
func replayHomeBase(t *testing.T, g mesh.Grid, prog workload.Program) replay {
	t.Helper()
	place, err := mesh.RowMajorPlacement(g, prog.Qubits)
	if err != nil {
		t.Fatal(err)
	}
	var r replay
	for _, op := range prog.Ops {
		a, b := place.Home(op.A), place.Home(op.B)
		r.move(b, a)
		r.move(a, b)
	}
	return r
}

// replayMobile replays prog in program order under MobileQubit from the
// snake-placement homes: every op moves A to B's current tile, and a
// qubit's last op sends it home.  The simulator runs the ops touching
// one qubit in program order, so the replay sees the positions the
// simulator moves between.
func replayMobile(t *testing.T, g mesh.Grid, prog workload.Program) replay {
	t.Helper()
	place, err := mesh.SnakePlacement(g, prog.Qubits)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]mesh.Coord, prog.Qubits)
	for q := range pos {
		pos[q] = place.Home(q)
	}
	last := make([]int, prog.Qubits)
	for k, op := range prog.Ops {
		last[op.A], last[op.B] = k, k
	}
	var r replay
	for k, op := range prog.Ops {
		r.move(pos[op.A], pos[op.B])
		pos[op.A] = pos[op.B]
		for _, q := range []int{op.A, op.B} {
			if last[q] == k {
				r.move(pos[q], place.Home(q))
				pos[q] = place.Home(q)
			}
		}
	}
	return r
}

// assertPairHops checks a minimally routed run's channel and pair-hop
// counts against its program replay: the run opens want.channels
// channels, and with r batches resent its pairHops exceeds the
// resend-free count by between batchPairs·r and batchPairs·r·(W+H−2),
// which for r = 0 pins it exactly.
func assertPairHops(t *testing.T, s *simulator, cfg Config, want replay) {
	t.Helper()
	if s.channels != want.channels {
		t.Errorf("%d channels, replay opens %d", s.channels, want.channels)
	}
	code, err := ecc.Steane(cfg.CodeLevel)
	if err != nil {
		t.Fatal(err)
	}
	batchPairs := uint64(1) << uint(cfg.PurifyDepth)
	base := uint64(code.PairsPerLogicalTeleport()) * batchPairs * uint64(want.hops)
	r := s.failedBatches + s.droppedBatches
	diameter := uint64(cfg.Grid.Width + cfg.Grid.Height - 2)
	if s.pairHops < base {
		t.Fatalf("pairHops %d below the resend-free count %d", s.pairHops, base)
	}
	if excess := s.pairHops - base; excess < batchPairs*r || excess > batchPairs*r*diameter {
		t.Errorf("pairHops %d = %d + %d for %d resent batches, want excess in [%d, %d]",
			s.pairHops, base, excess, r, batchPairs*r, batchPairs*r*diameter)
	}
}

// assertDrained fails the test for every resource a finished run still
// holds.
func assertDrained(t *testing.T, s *simulator) {
	t.Helper()
	if n := s.engine.Pending(); n != 0 {
		t.Errorf("engine has %d pending events", n)
	}
	if s.pending != 0 {
		t.Errorf("%d channels or gates still in flight", s.pending)
	}
	for i, n := range s.nodes {
		if occ := n.Occupancy(); occ != 0 {
			t.Errorf("router %v occupancy %d, want 0", s.cfg.Grid.CoordOf(i), occ)
		}
	}
	for i, p := range s.purify {
		if p.InUse() != 0 || p.QueueLen() != 0 {
			t.Errorf("purifier %v: %d in use, %d queued", s.cfg.Grid.CoordOf(i), p.InUse(), p.QueueLen())
		}
	}
	for i, l := range s.cfg.Grid.Links() {
		if r := s.gnodes[i]; r.InUse() != 0 || r.QueueLen() != 0 {
			t.Errorf("generator %v%v: %d in use, %d queued", l.From, l.Dir, r.InUse(), r.QueueLen())
		}
	}
	free := 0
	for b := s.freeBatches; b != nil; b = b.next {
		free++
	}
	if s.batchRecords == 0 || free != s.batchRecords {
		t.Errorf("%d of %d batch records returned to the free list", free, s.batchRecords)
	}
}

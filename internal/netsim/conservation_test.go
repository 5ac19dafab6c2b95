package netsim

import (
	"context"
	"testing"

	"repro/internal/ecc"
	"repro/internal/mesh"
	"repro/internal/workload"

	"repro/qnet/fault"
	"repro/qnet/route"
)

// TestRunConservesResources is the end-of-run conservation check: a run
// that completes must leave the simulator fully drained — no pending
// event, no channel or gate in flight, every router's teleporter sets
// and storage credits returned, every purifier and generator idle with
// an empty queue, and every op, channel and batch record back on its
// free list.  A leaked credit or a lost record shows up here even when
// the Result still looks plausible.  The cases cover every routing family on both
// layouts, the resource-starved corner of Figure 16, and the fault and
// failure-injection resend paths.
//
// The channel and pair-hop counts are also accounted for from the
// program alone, by replaying its qubit moves (replayHomeBase,
// replayMobile): every channel carries every batch's pairs over its
// path, and each resent batch (failed or dropped) adds between one hop
// and the longest path's hops.  On a healthy mesh every policy routes
// minimally, so a path spans the Manhattan distance.  With dead links
// the cases route fault-adaptive, which is deterministic, so the run
// flies exactly the paths RouteFaulty gives over the pattern
// fault.Preview draws for the run's seed.
func TestRunConservesResources(t *testing.T) {
	g := grid(t, 6, 6)
	prog := workload.QFT(g.Tiles())
	const seed = 7
	faulty := fault.Spec{DeadLinks: 0.05, Drop: 0.02}
	replays := func(pathLen func(a, b mesh.Coord) int) map[Layout]replay {
		return map[Layout]replay{
			HomeBase:    replayHomeBase(t, g, prog, pathLen),
			MobileQubit: replayMobile(t, g, prog, pathLen),
		}
	}
	healthy := replays(mesh.Manhattan)
	detoured := replays(escapePathLen(t, g, faulty, seed))
	for layout, r := range detoured {
		// Guard against a vacuous replay: the drawn dead links must
		// force detours.
		if r.hops <= healthy[layout].hops {
			t.Fatalf("%v: dead links add no detour (%d hops, %d on a healthy mesh)",
				layout, r.hops, healthy[layout].hops)
		}
	}
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
				cfg.Seed = seed
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
				want := healthy[layout]
				if tc.spec.DeadLinks > 0 {
					// Every dead-link case runs the faulty spec.
					want = detoured[layout]
				}
				assertPairHops(t, s, cfg, want)
			})
		}
	}
}

// replay is a program's resend-free channel load: the channels its
// layout opens, their summed path length in hops, and the longest path.
type replay struct {
	pathLen  func(a, b mesh.Coord) int
	channels uint64
	hops     int
	longest  int
}

// move accounts one qubit teleport from a to b; a local move opens no
// channel.
func (r *replay) move(a, b mesh.Coord) {
	if a != b {
		n := r.pathLen(a, b)
		r.channels++
		r.hops += n
		r.longest = max(r.longest, n)
	}
}

// escapePathLen returns the hop length of the path fault-adaptive
// routing takes between two tiles over the fault pattern a run with
// the given seed draws from spec.
func escapePathLen(t *testing.T, g mesh.Grid, spec fault.Spec, seed int64) func(a, b mesh.Coord) int {
	t.Helper()
	model, err := fault.Preview(spec, g, seed)
	if err != nil {
		t.Fatal(err)
	}
	fa := route.FaultAdaptive().(route.FaultAware)
	return func(a, b mesh.Coord) int {
		dirs, err := fa.RouteFaulty(g, a, b, model, nil)
		if err != nil {
			t.Fatal(err)
		}
		return len(dirs)
	}
}

// replayHomeBase replays prog under HomeBase from the row-major homes:
// every op teleports B from its home to A's home and back.
func replayHomeBase(t *testing.T, g mesh.Grid, prog workload.Program, pathLen func(a, b mesh.Coord) int) replay {
	t.Helper()
	place, err := mesh.RowMajorPlacement(g, prog.Qubits)
	if err != nil {
		t.Fatal(err)
	}
	r := replay{pathLen: pathLen}
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
func replayMobile(t *testing.T, g mesh.Grid, prog workload.Program, pathLen func(a, b mesh.Coord) int) replay {
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
	r := replay{pathLen: pathLen}
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

// assertPairHops checks a run's channel and pair-hop counts against its
// program replay: the run opens want.channels channels, and with r
// batches resent its pairHops exceeds the resend-free count by between
// batchPairs·r and batchPairs·r·want.longest, which for r = 0 pins it
// exactly.
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
	longest := uint64(want.longest)
	if s.pairHops < base {
		t.Fatalf("pairHops %d below the resend-free count %d", s.pairHops, base)
	}
	if excess := s.pairHops - base; excess < batchPairs*r || excess > batchPairs*r*longest {
		t.Errorf("pairHops %d = %d + %d for %d resent batches, want excess in [%d, %d]",
			s.pairHops, base, excess, r, batchPairs*r, batchPairs*r*longest)
	}
}

// assertDrained fails the test for every resource a finished run still
// holds.
func assertDrained(t *testing.T, s *simulator) {
	t.Helper()
	if s.engine.Step() {
		t.Error("engine still has a pending event")
	}
	if s.pending != 0 {
		t.Errorf("%d channels or gates still in flight", s.pending)
	}
	for i := range s.nodes {
		if occ := s.nodes[i].occupancy(); occ != 0 {
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
	ops, channels, batches := 0, 0, 0
	for o := s.freeOps; o != nil; o = o.next {
		ops++
	}
	for ch := s.freeChannels; ch != nil; ch = ch.next {
		channels++
	}
	for b := s.freeBatches; b != nil; b = b.next {
		batches++
	}
	for _, r := range []struct {
		what         string
		free, minted int
	}{
		{"op", ops, s.opRecords},
		{"channel", channels, s.channelRecords},
		{"batch", batches, s.batchRecords},
	} {
		if r.minted == 0 || r.free != r.minted {
			t.Errorf("%d of %d %s records returned to the free list", r.free, r.minted, r.what)
		}
	}
}

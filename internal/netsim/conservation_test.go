package netsim

import (
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/route"
	"repro/internal/workload"
)

// TestRunConservesResources is the end-of-run conservation check: a run
// that completes must leave the simulator fully drained — no pending
// event, no channel or gate in flight, every router's teleporter sets
// and storage credits returned, and every purifier and generator idle
// with an empty queue.  A leaked credit or a lost batch shows up here
// even when the Result still looks plausible.  The cases cover every
// routing family on both layouts, the resource-starved corner of
// Figure 16, and the fault and failure-injection resend paths.
func TestRunConservesResources(t *testing.T) {
	g := grid(t, 6, 6)
	prog := workload.QFT(g.Tiles())
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
			})
		}
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
}

package netsim

import (
	"context"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/workload"
)

// builtNodes builds a simulator over a w×h mesh with t teleporters per
// node and returns its nodes.
func builtNodes(t *testing.T, w, h, teleporters int) (mesh.Grid, []node) {
	t.Helper()
	g := grid(t, w, h)
	s := &simulator{cfg: DefaultConfig(g, HomeBase, teleporters, 16, 8), engine: sim.New()}
	if err := s.build(workload.Program{Name: "idle", Qubits: 1}); err != nil {
		t.Fatal(err)
	}
	return g, s.nodes
}

// loadNode builds a node with two teleporters per set and two storage
// credits on each of the four incoming links, for the load-accounting
// tests.
func loadNode(t *testing.T) *node {
	t.Helper()
	engine := sim.New()
	n := &node{}
	for axis := range n.sets {
		r, err := sim.NewResource(engine, "set", 2)
		if err != nil {
			t.Fatal(err)
		}
		n.sets[axis] = r
	}
	for d := range n.storage {
		s, err := sim.NewSemaphore("storage", 2)
		if err != nil {
			t.Fatal(err)
		}
		n.storage[d] = s
	}
	return n
}

// hold is a job that keeps the unit it is granted: the load tests only
// occupy units and queue waiters, never release them.
func hold(any) {}

// TestTeleporterSetsSplitEvenly checks build splits a node's t
// teleporters into an X and a Y set of ⌊t/2⌋ each.
func TestTeleporterSetsSplitEvenly(t *testing.T) {
	for _, tc := range []struct{ t, set int }{{4, 2}, {16, 8}, {21, 10}, {1024, 512}} {
		_, nodes := builtNodes(t, 3, 3, tc.t)
		for i := range nodes {
			if x, y := nodes[i].sets[0].Capacity(), nodes[i].sets[1].Capacity(); x != tc.set || y != tc.set {
				t.Errorf("t=%d: tile %d has sets of %d/%d, want %d/%d", tc.t, i, x, y, tc.set, tc.set)
			}
		}
	}
}

// TestSingleTeleporterStillGivesOnePerSet checks the split's floor: a
// node with fewer than two teleporters still has one in each set.
func TestSingleTeleporterStillGivesOnePerSet(t *testing.T) {
	_, nodes := builtNodes(t, 2, 2, 1)
	for i := range nodes {
		if nodes[i].sets[0].Capacity() != 1 || nodes[i].sets[1].Capacity() != 1 {
			t.Errorf("tile %d: sets of %d/%d, want 1/1", i, nodes[i].sets[0].Capacity(), nodes[i].sets[1].Capacity())
		}
	}
}

// TestStoragePerIncomingLink checks build gives a node storage exactly
// on the directions a link arrives from, sized in whole batches.
func TestStoragePerIncomingLink(t *testing.T) {
	g, nodes := builtNodes(t, 3, 2, 16)
	for i := range nodes {
		c := g.CoordOf(i)
		for _, d := range []mesh.Direction{mesh.East, mesh.West, mesh.North, mesh.South} {
			s := nodes[i].storage[d]
			if !g.Contains(c.Step(d)) {
				if s != nil {
					t.Errorf("%v has storage from %v, where no link arrives", c, d)
				}
				continue
			}
			if s == nil {
				t.Errorf("%v has no storage from %v", c, d)
			} else if s.Limit() != 2 {
				t.Errorf("%v storage from %v holds %d batches, want 2 (16 cells)", c, d, s.Limit())
			}
		}
	}
}

// TestAxisLoadAccountsServiceAndQueue checks axisLoad counts jobs in
// service and waiting over the set's capacity, per axis.
func TestAxisLoadAccountsServiceAndQueue(t *testing.T) {
	n := loadNode(t)
	if n.axisLoad(0) != 0 || n.axisLoad(1) != 0 {
		t.Fatalf("idle node reports load %v/%v", n.axisLoad(0), n.axisLoad(1))
	}
	// Occupy both X teleporters, then queue a third job.
	for i := 0; i < 3; i++ {
		n.sets[0].TakeOn(nil, hold, nil)
	}
	if got := n.axisLoad(0); got != 1.5 {
		t.Errorf("axisLoad(0) = %v, want 1.5 (2 busy + 1 queued over capacity 2)", got)
	}
	if got := n.axisLoad(1); got != 0 {
		t.Errorf("axisLoad(1) = %v, want 0 (loads must not leak across axes)", got)
	}
}

// TestStorageLoadAccountsCreditsAndWaiters checks storageLoad counts
// taken credits plus queued acquirers, and reads zero where no link
// arrives.
func TestStorageLoadAccountsCreditsAndWaiters(t *testing.T) {
	n := loadNode(t)
	s := n.storage[mesh.East]
	if got := n.storageLoad(mesh.East); got != 0 {
		t.Fatalf("empty storage load %v", got)
	}
	s.Acquire(func() {})
	if got := n.storageLoad(mesh.East); got != 0.5 {
		t.Errorf("half-full storage load %v, want 0.5", got)
	}
	s.Acquire(func() {})
	s.Acquire(func() {}) // queued: no credits left
	if got := n.storageLoad(mesh.East); got != 1.5 {
		t.Errorf("overloaded storage load %v, want 1.5", got)
	}
	// The corner tile of a built mesh has no link from the west.
	g, nodes := builtNodes(t, 2, 2, 16)
	if got := nodes[g.Index(mesh.Coord{})].storageLoad(mesh.West); got != 0 {
		t.Errorf("absent link storage load %v, want 0", got)
	}
}

// TestLoadsExceedOneUnderBacklog pins the route.Loads contract in the
// deep-backlog regime: axisLoad and storageLoad are counter-over-
// capacity ratios, not bounded fractions, and grow past 1 with every
// queued job.  Consumers that need [0, 1], such as the congestion
// heatmap's color scale, clamp at their own normalization layer
// (report.Shade); the raw signal keeps ranking congested nodes even
// when every candidate is saturated.
func TestLoadsExceedOneUnderBacklog(t *testing.T) {
	// The X set has capacity 2 and East storage limit 2, so `acquires`
	// jobs mean max(acquires-2, 0) backlogged ones.
	cases := []struct {
		acquires int
		want     float64
	}{
		{0, 0},
		{1, 0.5},
		{2, 1}, // saturated, nothing queued
		{3, 1.5},
		{4, 2}, // one full extra wave queued
		{6, 3}, // deep backlog keeps scaling linearly
	}
	for _, c := range cases {
		n := loadNode(t)
		for i := 0; i < c.acquires; i++ {
			n.sets[0].TakeOn(nil, hold, nil)
			n.storage[mesh.East].Acquire(func() {})
		}
		if got := n.axisLoad(0); got != c.want {
			t.Errorf("%d acquires: axisLoad(0) = %v, want %v", c.acquires, got, c.want)
		}
		if got := n.storageLoad(mesh.East); got != c.want {
			t.Errorf("%d acquires: storageLoad(East) = %v, want %v", c.acquires, got, c.want)
		}
	}
}

// TestOccupancyAggregatesLoadCounters checks occupancy sums, in
// batches, exactly the counters axisLoad and storageLoad normalize: the
// invariant that makes the tracer's occupancy series and adaptive
// routing's load view two readings of one signal.
func TestOccupancyAggregatesLoadCounters(t *testing.T) {
	n := loadNode(t)
	if got := n.occupancy(); got != 0 {
		t.Fatalf("idle node occupancy %d, want 0", got)
	}
	// 3 jobs on the X set (2 busy + 1 queued), 1 on the Y set, and 5
	// storage acquires on East (2 credits + 3 waiters): 9 batches total.
	for i := 0; i < 3; i++ {
		n.sets[0].TakeOn(nil, hold, nil)
	}
	n.sets[1].TakeOn(nil, hold, nil)
	for i := 0; i < 5; i++ {
		n.storage[mesh.East].Acquire(func() {})
	}
	if got := n.occupancy(); got != 9 {
		t.Errorf("occupancy %d, want 9", got)
	}
	// Occupancy must equal the denormalized sum of every axis and
	// storage load.
	sum := 0.0
	for axis := range n.sets {
		sum += n.axisLoad(axis) * float64(n.sets[axis].Capacity())
	}
	for d, s := range n.storage {
		sum += n.storageLoad(mesh.Direction(d)) * float64(s.Limit())
	}
	if int(sum) != n.occupancy() {
		t.Errorf("denormalized load sum %v != occupancy %d", sum, n.occupancy())
	}
}

// TestUtilizationAveragesSets checks utilization is the mean of the two
// sets' utilizations.
func TestUtilizationAveragesSets(t *testing.T) {
	engine := sim.New()
	x, err := sim.NewResource(engine, "x", 2)
	if err != nil {
		t.Fatal(err)
	}
	y, err := sim.NewResource(engine, "y", 2)
	if err != nil {
		t.Fatal(err)
	}
	n := &node{sets: [2]*sim.Resource{x, y}}
	// One X teleporter busy for the whole run: X util 0.5 (1 of 2), Y 0.
	x.Serve(10*time.Microsecond, nil)
	if err := engine.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := n.utilization(); got != 0.25 {
		t.Errorf("mean utilization = %g, want 0.25", got)
	}
}

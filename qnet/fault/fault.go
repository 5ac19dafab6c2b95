// Package fault is the mesh fault-model layer: it turns a declarative
// Spec — dead links, transient per-link drop probability, degraded-
// fidelity regions — into a concrete per-link Model for one simulation
// run, drawn from the run's seeded RNG, so fault patterns are exactly
// reproducible, content-addressable by the result cache, and sweepable
// as a first-class dimension.
//
// Attach a spec to a machine with simulate.WithFaults, or sweep over
// several with simulate.Space.Faults:
//
//	m, err := simulate.New(grid, simulate.MobileQubit,
//		simulate.WithRouting(route.FaultAdaptive()),
//		simulate.WithSeed(7),
//		simulate.WithFaults(fault.Spec{DeadLinks: 0.05, Drop: 0.01}))
//
// Three fault axes compose:
//
//   - Dead links: a fraction of mesh links is disabled outright.  A
//     routing policy that cannot route around them fails the run with a
//     *RouteBlockedError; the fault-adaptive policy
//     (route.FaultAdaptive) escapes around the holes, and a mesh the
//     faults disconnect fails with an *UnreachableError.
//   - Transient drops: every EPR batch crossing a live link is lost
//     with the link's drop probability and must be re-sent from the
//     channel source.  A run whose resends exceed the per-channel
//     attempt budget fails with an *ExcessiveLossError instead of
//     simulating forever, which keeps simulated time bounded under any
//     admissible spec.
//   - Degraded regions: rectangular areas of the mesh whose links lose
//     batches at an elevated rate (fidelity degradation surfaces as
//     post-purification loss), stacked on top of the baseline drop.
//
// A run on a faulty mesh therefore completes or fails with one of
// those structured, matchable errors — never a hang: blocked work
// leaves the event engine without pending events, so even a
// deadlocked configuration terminates immediately.
//
// Preview materializes a spec exactly as a run with the same seed
// will, for inspecting the drawn pattern (dead-link count,
// connectivity) without simulating.  The zero Spec means a healthy
// mesh and reproduces the fault-free simulator byte for byte.
//
// The Model also precomputes the escape ranks (BFS levels over live
// links from tile 0) that the fault-adaptive routing policy uses for
// its deadlock-free up*/down* escape ordering — see qnet/route.
package fault

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/mesh"
)

// maxDrop caps the effective per-link drop probability after stacking
// the baseline and region rates: even a maximally degraded link lets
// one batch in twenty through, so every channel terminates with a
// bounded expected resend count (the per-channel attempt budget turns
// pathological stacking into a structured error, not a hang).
const maxDrop = 0.95

// Region is one degraded-fidelity rectangle: links with an endpoint
// inside the rectangle lose batches at an extra Drop probability on
// top of the spec's baseline rate.
type Region struct {
	// X, Y is the rectangle's top-left tile.
	X int `json:"x"`
	// Y is the rectangle's top row (see X).
	Y int `json:"y"`
	// W, H are the rectangle's extent in tiles (both must be >= 1).
	W int `json:"w"`
	// H is the rectangle's height in tiles (see W).
	H int `json:"h"`
	// Drop is the extra per-batch drop probability the region's links
	// pay, in [0,1).
	Drop float64 `json:"drop"`
}

// contains reports whether the region covers the tile.
func (r Region) contains(c mesh.Coord) bool {
	return c.X >= r.X && c.X < r.X+r.W && c.Y >= r.Y && c.Y < r.Y+r.H
}

// Spec declares a fault pattern for one run.  The zero value means a
// healthy mesh: no dead links, no drops, no degraded regions — and a
// simulation with the zero Spec is bit-for-bit the simulation that
// existed before the fault layer (the parity goldens pin this).
type Spec struct {
	// DeadLinks is the fraction of mesh links disabled at random, in
	// [0,1]; each link dies independently with this probability, drawn
	// from the run's seeded RNG (so the pattern is a pure function of
	// the seed).  1 kills every link.
	DeadLinks float64 `json:"dead_links,omitempty"`
	// Drop is the baseline per-batch drop probability every live link
	// applies to crossing traffic, in [0,1).
	Drop float64 `json:"drop,omitempty"`
	// Regions are the degraded-fidelity rectangles; their Drop rates
	// stack on the baseline (capped so channels always terminate).
	Regions []Region `json:"regions,omitempty"`
}

// Empty reports whether the spec declares no faults at all.  An empty
// spec never consults the RNG and leaves the simulation byte-identical
// to a fault-free build, so cache keys canonicalize its seed away
// exactly as they always have.
func (sp Spec) Empty() bool {
	return sp.DeadLinks == 0 && sp.Drop == 0 && len(sp.Regions) == 0
}

// Validate reports the first invalid field of the spec, checking
// region rectangles against the grid.
func (sp Spec) Validate(g mesh.Grid) error {
	if sp.DeadLinks < 0 || sp.DeadLinks > 1 {
		return fmt.Errorf("fault: DeadLinks fraction must be in [0,1], got %g", sp.DeadLinks)
	}
	if sp.Drop < 0 || sp.Drop >= 1 {
		return fmt.Errorf("fault: Drop probability must be in [0,1), got %g", sp.Drop)
	}
	for i, r := range sp.Regions {
		if r.W < 1 || r.H < 1 {
			return fmt.Errorf("fault: region %d extent must be >= 1x1, got %dx%d", i, r.W, r.H)
		}
		if r.X < 0 || r.Y < 0 || r.X+r.W > g.Width || r.Y+r.H > g.Height {
			return fmt.Errorf("fault: region %d (%d,%d)+%dx%d outside %dx%d grid",
				i, r.X, r.Y, r.W, r.H, g.Width, g.Height)
		}
		if r.Drop < 0 || r.Drop >= 1 {
			return fmt.Errorf("fault: region %d drop probability must be in [0,1), got %g", i, r.Drop)
		}
	}
	return nil
}

// String renders the spec canonically ("dead=0.05,drop=0.02,
// region=(2,2)+3x3@0.2"; "none" when empty) — the form result grouping
// and CLI tables use, so two equal specs always render identically.
func (sp Spec) String() string {
	if sp.Empty() {
		return "none"
	}
	var parts []string
	if sp.DeadLinks != 0 {
		parts = append(parts, fmt.Sprintf("dead=%g", sp.DeadLinks))
	}
	if sp.Drop != 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", sp.Drop))
	}
	for _, r := range sp.Regions {
		parts = append(parts, fmt.Sprintf("region=(%d,%d)+%dx%d@%g", r.X, r.Y, r.W, r.H, r.Drop))
	}
	return strings.Join(parts, ",")
}

// Model is one run's materialized fault pattern: per-link death and
// drop probabilities plus the escape ranks fault-adaptive routing
// needs.  A Model is immutable after Build and safe for concurrent
// reads.
type Model struct {
	grid mesh.Grid
	// dead and drop are indexed by mesh.Grid.LinkIndex.
	dead []bool
	drop []float64
	// rank is the BFS level of each tile (row-major) over live links
	// from the escape root (tile 0); -1 marks tiles the faults
	// disconnected from the root.
	rank     []int
	deadN    int
	anyDrop  bool
	hasFault bool
}

// Build materializes the spec on the grid, drawing the dead-link
// pattern from rng — the run's seeded RNG, so equal (spec, grid, seed)
// triples produce identical models.  Exactly NumLinks draws are
// consumed when DeadLinks > 0 and none otherwise, keeping the RNG
// stream of a drop-only or empty spec aligned with a fault-free run.
func (sp Spec) Build(g mesh.Grid, rng *rand.Rand) (*Model, error) {
	if err := sp.Validate(g); err != nil {
		return nil, err
	}
	if sp.Empty() {
		return nil, nil
	}
	n := g.NumLinks()
	m := &Model{
		grid:     g,
		dead:     make([]bool, n),
		drop:     make([]float64, n),
		hasFault: true,
	}
	if sp.DeadLinks > 0 {
		// One Bernoulli draw per link, in canonical LinkIndex order, so
		// the pattern is a pure function of the RNG state.
		for i := 0; i < n; i++ {
			if rng.Float64() < sp.DeadLinks {
				m.dead[i] = true
				m.deadN++
			}
		}
	}
	for i, l := range g.Links() {
		if m.dead[i] {
			continue
		}
		d := sp.Drop
		to := l.From.Step(l.Dir)
		for _, r := range sp.Regions {
			if r.contains(l.From) || r.contains(to) {
				// Independent loss processes stack multiplicatively:
				// the batch survives only if every process spares it.
				d = 1 - (1-d)*(1-r.Drop)
			}
		}
		if d > maxDrop {
			d = maxDrop
		}
		m.drop[i] = d
		if d > 0 {
			m.anyDrop = true
		}
	}
	m.computeRanks()
	return m, nil
}

// Preview materializes the spec exactly as a simulation run with the
// given seed will: a fresh seeded RNG, faults drawn first.  Use it to
// inspect a fault pattern — dead-link count, connectivity — before (or
// without) paying for the run.  A nil model means the spec is empty.
func Preview(sp Spec, g mesh.Grid, seed int64) (*Model, error) {
	return sp.Build(g, rand.New(rand.NewSource(seed)))
}

// computeRanks BFS-labels every tile with its distance from tile 0
// over live links, the escape ordering fault-adaptive routing builds
// its up*/down* phases on.  Direction order is fixed (East, West,
// North, South) so the labeling — like everything else about the model
// — is deterministic.
func (m *Model) computeRanks() {
	m.rank = make([]int, m.grid.Tiles())
	for i := range m.rank {
		m.rank[i] = -1
	}
	m.rank[0] = 0
	queue := []int{0}
	for len(queue) > 0 {
		idx := queue[0]
		queue = queue[1:]
		c := m.grid.CoordOf(idx)
		for _, d := range []mesh.Direction{mesh.East, mesh.West, mesh.North, mesh.South} {
			nc := c.Step(d)
			if !m.grid.Contains(nc) || m.Dead(c, d) {
				continue
			}
			ni := m.grid.Index(nc)
			if m.rank[ni] < 0 {
				m.rank[ni] = m.rank[idx] + 1
				queue = append(queue, ni)
			}
		}
	}
}

// Grid returns the mesh the model was built on.
func (m *Model) Grid() mesh.Grid { return m.grid }

// Dead reports whether the link leaving c in direction d is dead.  A
// hop off the grid edge counts as dead (there is no link there), so
// callers may probe all four directions uniformly.
func (m *Model) Dead(c mesh.Coord, d mesh.Direction) bool {
	if !m.grid.Contains(c.Step(d)) {
		return true
	}
	return m.dead[m.grid.LinkIndex(m.grid.LinkFrom(c, d))]
}

// DropRate returns the per-batch drop probability of the link leaving
// c in direction d (0 for a dead or off-grid link: dead links carry no
// traffic to drop).
func (m *Model) DropRate(c mesh.Coord, d mesh.Direction) float64 {
	if !m.grid.Contains(c.Step(d)) {
		return 0
	}
	return m.drop[m.grid.LinkIndex(m.grid.LinkFrom(c, d))]
}

// dropByIndex returns the drop probability of the link with the given
// canonical index — the allocation-free form the simulator's hop path
// uses.
func (m *Model) dropByIndex(li int) float64 { return m.drop[li] }

// DropByIndex returns the drop probability of the link with the given
// mesh.Grid.LinkIndex.
func (m *Model) DropByIndex(li int) float64 { return m.dropByIndex(li) }

// Rank returns the escape rank of the tile: its BFS distance from tile
// 0 over live links, or -1 when the faults disconnected it from the
// escape root.
func (m *Model) Rank(c mesh.Coord) int { return m.rank[m.grid.Index(c)] }

// DeadCount returns the number of dead links the model drew.
func (m *Model) DeadCount() int { return m.deadN }

// HasDeadLinks reports whether any link died — the condition under
// which routing must consult the model.
func (m *Model) HasDeadLinks() bool { return m.deadN > 0 }

// HasDrops reports whether any live link drops traffic.
func (m *Model) HasDrops() bool { return m.anyDrop }

// Connected reports whether every tile can still reach tile 0 over
// live links.  A disconnected model makes some channels impossible;
// those runs fail with an *UnreachableError.
func (m *Model) Connected() bool {
	for _, r := range m.rank {
		if r < 0 {
			return false
		}
	}
	return true
}

// UnreachableError reports that a channel's endpoints are separated by
// dead links: no live path connects them, under any routing policy.
type UnreachableError struct {
	// Src and Dst are the channel endpoints.
	Src, Dst mesh.Coord
	// Policy is the routing policy that detected the partition.
	Policy string
}

// Error renders the unreachable pair.
func (e *UnreachableError) Error() string {
	return fmt.Sprintf("fault: no live path from %v to %v (mesh partitioned by dead links; policy %q)",
		e.Src, e.Dst, e.Policy)
}

// RouteBlockedError reports that a routing policy's chosen path
// crosses a dead link the policy cannot route around (dimension-order
// and the other static minimal policies do not reroute; use the
// fault-adaptive policy on faulty meshes).
type RouteBlockedError struct {
	// Src and Dst are the channel endpoints.
	Src, Dst mesh.Coord
	// At is the tile whose outgoing link is dead.
	At mesh.Coord
	// Policy is the routing policy whose path was blocked.
	Policy string
}

// Error renders the blocked hop.
func (e *RouteBlockedError) Error() string {
	return fmt.Sprintf("fault: policy %q routes %v to %v across a dead link at %v (fault-adaptive routing can escape around it)",
		e.Policy, e.Src, e.Dst, e.At)
}

// ExcessiveLossError reports that one channel burned through its
// resend budget: the fault pattern drops batches faster than the
// channel can redeliver them, so the run is aborted with a structured
// error instead of simulating unboundedly.
type ExcessiveLossError struct {
	// Src and Dst are the channel endpoints.
	Src, Dst mesh.Coord
	// Attempts is the number of batch transmissions the channel spent.
	Attempts uint64
}

// Error renders the exhausted budget.
func (e *ExcessiveLossError) Error() string {
	return fmt.Sprintf("fault: channel %v to %v exhausted its resend budget after %d batch attempts (drop rates too hostile)",
		e.Src, e.Dst, e.Attempts)
}

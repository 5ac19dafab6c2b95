package route

import (
	"repro/internal/mesh"

	"repro/qnet/fault"
)

// Faults exposes a run's materialized fault pattern to routing.
// *fault.Model implements it; a nil Faults means a healthy mesh (every
// on-grid link live, ranks = distance from tile 0).
type Faults interface {
	// Dead reports whether the link leaving c in direction d is dead
	// (off-grid hops count as dead).
	Dead(c mesh.Coord, d mesh.Direction) bool
	// Rank returns the tile's escape rank: its BFS distance from tile 0
	// over live links, or -1 for a tile dead links disconnected from
	// tile 0.
	Rank(c mesh.Coord) int
}

// FaultAware is the optional capability interface a Policy implements
// to accept a fault pattern: RouteFaulty routes on the live topology,
// avoiding dead links.  The simulator calls RouteFaulty instead of
// Route whenever the run has a fault model and the policy declares the
// capability; policies without it keep their fault-oblivious paths,
// which netsim then validates against the model (a blocked path is a
// structured error, not a hang).
type FaultAware interface {
	// RouteFaulty produces a hop sequence from src to dst that crosses
	// no dead link of f.  A nil f means a healthy mesh.  Implementations
	// must stay deadlock-free under blocking flow control for ANY fault
	// pattern — the up*/down* escape ordering is the shipped way to get
	// that — and must return a structured error (not a detour through a
	// dead link) when f disconnects src from dst.
	RouteFaulty(g mesh.Grid, src, dst mesh.Coord, f Faults, loads Loads) ([]mesh.Direction, error)
}

// faultAdaptive is the escape-channel policy.
type faultAdaptive struct{}

// FaultAdaptive returns the fault-adaptive escape-channel policy: it
// routes around dead links on the shortest up*/down*-legal path over
// the live topology (see the package comment's "Fault-adaptive
// routing" section), and on a healthy mesh behaves as a
// negative-first minimal policy.  It is not part of Policies() — the
// healthy-mesh comparison set — but Parse recognizes "fault-adaptive",
// and it is the policy of choice for any simulation with dead links.
func FaultAdaptive() Policy { return faultAdaptive{} }

// Name returns "fault-adaptive".
func (faultAdaptive) Name() string { return "fault-adaptive" }

// Deterministic reports that escape routes ignore live loads: paths
// depend only on (grid, fault pattern, src, dst), so the simulator's
// per-run route cache — which is scoped to one fault pattern — may
// memoize them.
func (faultAdaptive) Deterministic() bool { return true }

// Route produces the healthy-mesh escape path (equivalently: a
// negative-first minimal path).  Use RouteFaulty to route on a faulty
// mesh.
func (faultAdaptive) Route(g mesh.Grid, src, dst mesh.Coord, _ Loads) ([]mesh.Direction, error) {
	return routeEscape(g, src, dst, nil)
}

// RouteFaulty produces the shortest up*/down*-legal path over the live
// topology, or a *fault.UnreachableError when dead links separate the
// endpoints.
func (faultAdaptive) RouteFaulty(g mesh.Grid, src, dst mesh.Coord, f Faults, _ Loads) ([]mesh.Direction, error) {
	return routeEscape(g, src, dst, f)
}

// escapeDirs is the fixed neighbor-expansion order of the escape BFS;
// the tie-break that makes routes deterministic.
var escapeDirs = [4]mesh.Direction{mesh.East, mesh.West, mesh.North, mesh.South}

// healthyRank is the escape rank of a tile on a fault-free mesh: the
// BFS distance from tile 0 over the full mesh, which is exactly the
// Manhattan distance x+y.
func healthyRank(c mesh.Coord) int { return c.X + c.Y }

// routeEscape BFSes the (tile, phase) state graph for the shortest
// up*/down*-legal path.  Phase 0 ("up") may take up links, staying in
// phase 0, or down links, switching irrevocably to phase 1 ("down"),
// which only takes down links — so every discovered path obeys the
// escape ordering, and BFS order makes it the shortest such path.
func routeEscape(g mesh.Grid, src, dst mesh.Coord, f Faults) ([]mesh.Direction, error) {
	if err := checkEndpoints(g, src, dst); err != nil {
		return nil, err
	}
	if src == dst {
		return nil, nil
	}
	rank := healthyRank
	dead := func(c mesh.Coord, d mesh.Direction) bool { return !g.Contains(c.Step(d)) }
	if f != nil {
		rank, dead = f.Rank, f.Dead
	}
	// key orders tiles totally: by escape rank, then row-major index.
	// Adjacent tiles can share a rank on a faulty mesh (two tiles at
	// the same BFS level), so the index breaks the tie; a disconnected
	// component (rank -1 throughout) is still totally ordered by index
	// and can route internally.
	key := func(c mesh.Coord) [2]int { return [2]int{rank(c), g.Index(c)} }
	less := func(a, b [2]int) bool { return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]) }

	const up, down = 0, 1
	n := g.Tiles()
	// parent[state] encodes the BFS tree: the direction taken into the
	// state (+1, so 0 means unvisited) and the predecessor state.
	type pred struct {
		dir   int8 // direction + 1; 0 = unvisited
		state int32
	}
	parents := make([]pred, 2*n)
	state := func(c mesh.Coord, phase int) int { return g.Index(c)*2 + phase }
	start := state(src, up)
	parents[start] = pred{dir: -1}
	queue := make([]int32, 0, n)
	queue = append(queue, int32(start))
	goal := -1
	for len(queue) > 0 && goal < 0 {
		s := int(queue[0])
		queue = queue[1:]
		c := g.CoordOf(s / 2)
		phase := s % 2
		ck := key(c)
		for _, d := range escapeDirs {
			if dead(c, d) {
				continue
			}
			nc := c.Step(d)
			nphase := down
			if less(key(nc), ck) {
				// Up link: only reachable while still in the up phase.
				if phase == down {
					continue
				}
				nphase = up
			}
			ns := state(nc, nphase)
			if parents[ns].dir != 0 {
				continue
			}
			parents[ns] = pred{dir: int8(d) + 1, state: int32(s)}
			if nc == dst {
				goal = ns
				break
			}
			queue = append(queue, int32(ns))
		}
	}
	if goal < 0 {
		name := faultAdaptive{}.Name()
		return nil, &fault.UnreachableError{Src: src, Dst: dst, Policy: name}
	}
	// Walk the BFS tree back to src, then reverse into path order.
	var path []mesh.Direction
	for s := goal; s != start; {
		p := parents[s]
		path = append(path, mesh.Direction(p.dir-1))
		s = int(p.state)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

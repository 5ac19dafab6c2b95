// Package route is the pluggable routing layer of the mesh
// interconnect: a Policy decides the hop path every quantum channel
// takes across the grid, and plugs into the simulator
// (simulate.WithRouting, simulate.Space.Routings), the analytic channel
// planner (channel.Spec.Route) and the command-line tools
// (qnetsim -route, sweep -routes):
//
//	p, err := route.Parse("zigzag")
//	m, err := simulate.New(grid, simulate.HomeBase, simulate.WithRouting(p))
//
// The paper's Section 5 simulator hardwires dimension-order (X then Y)
// routing.  Its router hardware (Figure 6's split X/Y teleporter sets
// with a ballistic turn penalty) is exactly the substrate where the
// routing decision determines contention, turn cost and storage
// pressure, so this package makes it a first-class, swappable Policy.
// Dimension order remains the default everywhere, and a machine built
// without an explicit policy behaves — byte for byte — like the
// pre-routing-layer simulator.
//
// Four policies ship with the repository:
//
//   - XYOrder ("xy"): X then Y, the paper's dimension-order default.
//   - YXOrder ("yx"): Y then X, the mirrored dimension order.
//   - ZigZag ("zigzag"): staircase interleaving of X and Y moves,
//     spreading the turn penalty across the path's intermediate
//     routers.
//   - LeastCongested ("least-congested"): minimal adaptive routing; at
//     every tile it takes the productive direction whose teleporter
//     set and downstream storage report the least live load.
//
// Every shipped policy is minimal: it only ever moves toward the
// destination, so the hop count always equals the Manhattan distance
// and policies differ only in where they turn and which links they
// load.
//
// # Deadlock freedom
//
// The simulator's flow control is blocking: a batch holds its storage
// credit at the current tile while waiting for one at the next, so a
// cycle in the channel-dependency graph deadlocks the run.  Dimension
// order (XYOrder, YXOrder) is acyclic by the classic argument; ZigZag
// and LeastCongested restrict themselves to the negative-first turn
// model (Glass & Ni): all West/North (negative) hops are taken before
// any East/South (positive) hop, turns inside each phase are free, and
// the forbidden positive-to-negative turns are exactly the ones every
// dependency cycle needs.  Custom Policy implementations must obey a
// deadlock-free turn model too — staying inside negative-first is the
// simplest sufficient condition — or the simulation can stall (which
// netsim reports as an error rather than hanging).
//
// # Fault-adaptive routing
//
// A fifth policy, FaultAdaptive ("fault-adaptive"), routes around dead
// links on meshes with an attached fault model (qnet/fault,
// simulate.WithFaults).  It is not part of Policies() — the
// healthy-mesh comparison set — but Parse recognizes its name.  The
// other shipped policies assume every mesh link is live; on a mesh
// with dead links their paths can cross a hole and the run fails
// (structurally, not silently — netsim validates paths against the
// fault model).  FaultAdaptive instead routes on the live topology,
// with an escape-channel (up*/down*) extension of the negative-first
// turn model.
//
// Every tile gets an escape rank — its BFS level from tile 0 over live
// links (qnet/fault precomputes these).  Order tiles by the key
// (rank, row-major index); the key is a total order, so every directed
// link is either "up" (toward a smaller key) or "down" (toward a
// larger one).  A legal path is zero or more up hops followed by zero
// or more down hops — the classic up*/down* rule (Autonet; the
// spanning-tree member of Duato's escape-channel family).  The policy
// BFSes the (tile, phase) state graph — phase "up" may continue up or
// switch down, phase "down" must stay down — and returns the shortest
// legal path, tie-broken by fixed direction order, so routes are a
// deterministic function of (grid, fault pattern, src, dst).
//
// The escape order is deadlock-free for any fault pattern.  A deadlock
// needs a cycle of channels each waiting on the next.  Under up*/down*
// no such cycle exists: along any legal path the tile keys strictly
// decrease, then strictly increase, so a dependency chain of up-phase
// waits descends the key order and a chain of down-phase waits
// ascends it — and the one allowed phase switch (up to down) cannot
// close a cycle because the forbidden down-to-up switch is exactly the
// edge every cycle would need.  This is the same argument
// negative-first makes with the (x+y, x) order; escape ranks
// generalize it to a mesh with holes.
//
// On a healthy mesh the BFS levels from tile 0 are exactly rank(c) =
// c.X + c.Y, adjacent tiles always differ by one, and "up" links are
// precisely the West/North hops — so legal escape paths coincide with
// negative-first paths and FaultAdaptive's shortest legal route has
// minimal (Manhattan) length whenever a minimal negative-first path
// exists.  The escape extension costs nothing until a link dies.
package route

import (
	"fmt"
	"strings"

	"repro/internal/mesh"
)

// Coord is a tile coordinate on the mesh.
type Coord = mesh.Coord

// Direction is an axis-aligned unit movement on the mesh.
type Direction = mesh.Direction

// Loads exposes live congestion of the mesh to adaptive policies.  The
// simulator implements it over its router nodes; analytic callers pass
// nil, which every shipped policy treats as a zero-load mesh.
type Loads interface {
	// AxisLoad reports the queue pressure of the directional teleporter
	// set at tile c (axis 0 = X-direction traffic, 1 = Y-direction):
	// in-service plus waiting jobs, normalized by set capacity.
	AxisLoad(c mesh.Coord, axis int) float64
	// StorageLoad reports the occupancy fraction of tile c's incoming
	// storage for traffic arriving from the given direction (0 = empty,
	// 1 = full with waiters; 0 when the tile has no such link).
	StorageLoad(c mesh.Coord, from mesh.Direction) float64
}

// Policy decides the hop path of one channel: a sequence of directions
// from src to dst on the grid.  Implementations must be deterministic
// for equal inputs (the simulator's reproducibility depends on it) and
// safe for concurrent use; the shipped policies are stateless values.
type Policy interface {
	// Name returns the policy's canonical CLI name ("xy", "yx",
	// "zigzag", "least-congested").  Names identify policies in cache
	// keys, so two policies with equal names must route identically.
	Name() string
	// Route produces the hop sequence from src to dst.  loads may be
	// nil; adaptive policies then fall back to a deterministic static
	// order.  An empty path means src == dst.
	Route(g mesh.Grid, src, dst mesh.Coord, loads Loads) ([]mesh.Direction, error)
}

// Deterministic is the optional capability interface a Policy
// implements to declare that its routes depend only on (grid, src,
// dst) — never on the live Loads.  Such a policy answers every
// repeated (src, dst) query identically, so the simulator memoizes its
// paths in a per-run route cache instead of re-running it for every
// channel.  A policy that consults Loads (e.g. LeastCongested) must
// not implement it — or must return false — and transparently bypasses
// the cache.
type Deterministic interface {
	// Deterministic reports whether Route ignores its Loads argument.
	Deterministic() bool
}

// IsDeterministic reports whether p declares load-independence through
// the Deterministic capability interface.  Policies without the method
// are conservatively treated as adaptive (not cacheable).
func IsDeterministic(p Policy) bool {
	d, ok := p.(Deterministic)
	return ok && d.Deterministic()
}

// DefaultName is the canonical name of the default policy (dimension
// order, the paper's hardwired choice).
const DefaultName = "xy"

// NameOf returns the policy's name, mapping nil to DefaultName.  It is
// the canonical form used in cache keys and result grouping: a machine
// built without an explicit policy routes exactly like XYOrder, so both
// must serialize identically.
func NameOf(p Policy) string {
	if p == nil {
		return DefaultName
	}
	return p.Name()
}

// Default returns the default policy, XYOrder.
func Default() Policy { return XYOrder() }

// checkEndpoints validates that both endpoints lie on the grid.
func checkEndpoints(g mesh.Grid, src, dst mesh.Coord) error {
	if !g.Contains(src) {
		return fmt.Errorf("route: source %v outside %dx%d grid", src, g.Width, g.Height)
	}
	if !g.Contains(dst) {
		return fmt.Errorf("route: destination %v outside %dx%d grid", dst, g.Width, g.Height)
	}
	return nil
}

// xDir returns the productive X direction from src toward dst and the
// number of X hops remaining.
func xDir(src, dst mesh.Coord) (mesh.Direction, int) {
	if dst.X >= src.X {
		return mesh.East, dst.X - src.X
	}
	return mesh.West, src.X - dst.X
}

// yDir returns the productive Y direction from src toward dst and the
// number of Y hops remaining.
func yDir(src, dst mesh.Coord) (mesh.Direction, int) {
	if dst.Y >= src.Y {
		return mesh.South, dst.Y - src.Y
	}
	return mesh.North, src.Y - dst.Y
}

// xyOrder is the dimension-order policy (X then Y).
type xyOrder struct{}

// XYOrder returns the paper's dimension-order routing policy: all X
// hops first, then all Y hops, at most one turn per path.  It is the
// default everywhere a Policy is accepted, and it reproduces the
// pre-refactor simulator byte for byte.
func XYOrder() Policy { return xyOrder{} }

// Name returns "xy".
func (xyOrder) Name() string { return "xy" }

// Deterministic reports that dimension-order routes ignore live loads.
func (xyOrder) Deterministic() bool { return true }

// Route produces the X-then-Y dimension-order path.
func (xyOrder) Route(g mesh.Grid, src, dst mesh.Coord, _ Loads) ([]mesh.Direction, error) {
	// mesh.Grid.Route is the dimension-order reference implementation;
	// delegating keeps this policy provably identical to the
	// pre-refactor router.
	return g.Route(src, dst)
}

// yxOrder is the mirrored dimension-order policy (Y then X).
type yxOrder struct{}

// YXOrder returns the mirrored dimension-order policy: all Y hops
// first, then all X hops.  Against XYOrder it shifts which teleporter
// sets and links carry the traffic of a skewed workload.
func YXOrder() Policy { return yxOrder{} }

// Name returns "yx".
func (yxOrder) Name() string { return "yx" }

// Deterministic reports that mirrored dimension-order routes ignore
// live loads.
func (yxOrder) Deterministic() bool { return true }

// Route produces the Y-then-X dimension-order path.
func (yxOrder) Route(g mesh.Grid, src, dst mesh.Coord, _ Loads) ([]mesh.Direction, error) {
	if err := checkEndpoints(g, src, dst); err != nil {
		return nil, err
	}
	dx, nx := xDir(src, dst)
	dy, ny := yDir(src, dst)
	path := make([]mesh.Direction, 0, nx+ny)
	for i := 0; i < ny; i++ {
		path = append(path, dy)
	}
	for i := 0; i < nx; i++ {
		path = append(path, dx)
	}
	return path, nil
}

// negative reports whether a direction decreases its coordinate (West
// or North) — the "negative" phase of the negative-first turn model.
func negative(d mesh.Direction) bool { return d == mesh.West || d == mesh.North }

// zigZag is the staircase policy.
type zigZag struct{}

// ZigZag returns the staircase policy: X and Y moves alternate
// (starting on X) whenever the turn model allows it, so a diagonal
// route turns at almost every intermediate tile, spreading the
// ballistic turn penalty — and the directional teleporter-set pressure
// — across the whole path instead of concentrating it at one corner.
//
// The staircase stays inside the negative-first turn model: when the
// two dimensions travel the same sign (East+South, or West+North) the
// full alternation is legal; when they mix signs the negative
// dimension runs first and the path degenerates to dimension order,
// keeping the policy deadlock-free under blocking flow control.
func ZigZag() Policy { return zigZag{} }

// Name returns "zigzag".
func (zigZag) Name() string { return "zigzag" }

// Deterministic reports that staircase routes ignore live loads.
func (zigZag) Deterministic() bool { return true }

// Route produces the alternating staircase path.
func (zigZag) Route(g mesh.Grid, src, dst mesh.Coord, _ Loads) ([]mesh.Direction, error) {
	if err := checkEndpoints(g, src, dst); err != nil {
		return nil, err
	}
	dx, nx := xDir(src, dst)
	dy, ny := yDir(src, dst)
	path := make([]mesh.Direction, 0, nx+ny)
	if nx > 0 && ny > 0 && negative(dx) != negative(dy) {
		// Mixed signs: every interleaving would need a forbidden
		// positive-to-negative turn, so run the negative dimension
		// first (one legal negative-to-positive turn).
		first, firstN, second, secondN := dx, nx, dy, ny
		if negative(dy) {
			first, firstN, second, secondN = dy, ny, dx, nx
		}
		for i := 0; i < firstN; i++ {
			path = append(path, first)
		}
		for i := 0; i < secondN; i++ {
			path = append(path, second)
		}
		return path, nil
	}
	onX := true
	for nx > 0 || ny > 0 {
		if (onX && nx > 0) || ny == 0 {
			path = append(path, dx)
			nx--
		} else {
			path = append(path, dy)
			ny--
		}
		onX = !onX
	}
	return path, nil
}

// leastCongested is the adaptive policy.
type leastCongested struct{}

// LeastCongested returns the minimal adaptive policy: at every tile
// with a legal choice it compares the live load of the two productive
// directions — the local directional teleporter set plus the next
// tile's incoming storage — and takes the lighter one.  Ties continue
// straight (avoiding a gratuitous turn), and a nil Loads degrades to a
// deterministic static order, so the policy stays fully reproducible
// for a deterministic simulation.
//
// Adaptivity is restricted to the negative-first turn model: when both
// dimensions travel the same sign the choice is free at every hop;
// when they mix signs the negative dimension must finish first (a
// single legal turn), which is the price of deadlock freedom under the
// router's blocking storage credits.
func LeastCongested() Policy { return leastCongested{} }

// Name returns "least-congested".
func (leastCongested) Name() string { return "least-congested" }

// Route produces the load-adaptive minimal path.
func (leastCongested) Route(g mesh.Grid, src, dst mesh.Coord, loads Loads) ([]mesh.Direction, error) {
	if err := checkEndpoints(g, src, dst); err != nil {
		return nil, err
	}
	dx, nx := xDir(src, dst)
	dy, ny := yDir(src, dst)
	path := make([]mesh.Direction, 0, nx+ny)
	cur := src
	var last mesh.Direction
	haveLast := false
	step := func(d mesh.Direction) {
		path = append(path, d)
		cur = cur.Step(d)
		last, haveLast = d, true
	}
	if nx > 0 && ny > 0 && negative(dx) != negative(dy) {
		// Mixed signs: the turn model forces the negative phase first,
		// leaving no adaptive freedom on a minimal path.
		first, firstN, second, secondN := dx, nx, dy, ny
		if negative(dy) {
			first, firstN, second, secondN = dy, ny, dx, nx
		}
		for i := 0; i < firstN; i++ {
			step(first)
		}
		for i := 0; i < secondN; i++ {
			step(second)
		}
		return path, nil
	}
	for nx > 0 || ny > 0 {
		switch {
		case ny == 0:
			step(dx)
			nx--
		case nx == 0:
			step(dy)
			ny--
		default:
			cx, cy := 0.0, 0.0
			if loads != nil {
				// Cost of a move: pressure on the teleporter set that
				// serves it at the current tile, plus the downstream
				// storage the batch will occupy (traffic entering the
				// next tile arrives from the opposite direction).
				cx = loads.AxisLoad(cur, dx.Axis()) + loads.StorageLoad(cur.Step(dx), dx.Opposite())
				cy = loads.AxisLoad(cur, dy.Axis()) + loads.StorageLoad(cur.Step(dy), dy.Opposite())
			}
			switch {
			case cx < cy:
				step(dx)
				nx--
			case cy < cx:
				step(dy)
				ny--
			case haveLast && last == dy:
				// Tie: keep going straight rather than paying a turn.
				step(dy)
				ny--
			default:
				step(dx)
				nx--
			}
		}
	}
	return path, nil
}

// Turns counts the direction changes along a path — the number of
// ballistic X/Y set switches its batches pay inside router nodes.
func Turns(dirs []mesh.Direction) int {
	turns := 0
	for i := 1; i < len(dirs); i++ {
		if dirs[i].Axis() != dirs[i-1].Axis() {
			turns++
		}
	}
	return turns
}

// Policies returns one instance of every shipped policy, in canonical
// order (the order Names documents and the sweep dimension defaults
// to).
func Policies() []Policy {
	return []Policy{XYOrder(), YXOrder(), ZigZag(), LeastCongested()}
}

// Names returns the canonical CLI names of the shipped policies.
func Names() []string {
	ps := Policies()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name()
	}
	return names
}

// Parse resolves a policy by its canonical name (case-insensitive).
// The empty string resolves to the default policy.  Beyond the
// Policies() comparison set, Parse also recognizes "fault-adaptive",
// the escape-channel policy for meshes with dead links, and the
// per-channel composite "bydist(short,long,threshold)".
func Parse(name string) (Policy, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	if n == "" {
		return Default(), nil
	}
	if strings.HasPrefix(n, "bydist(") && strings.HasSuffix(n, ")") {
		return parseByDistance(n)
	}
	for _, p := range Policies() {
		if p.Name() == n {
			return p, nil
		}
	}
	if fa := FaultAdaptive(); fa.Name() == n {
		return fa, nil
	}
	known := append(Names(), FaultAdaptive().Name(), "bydist(short,long,threshold)")
	return nil, fmt.Errorf("route: unknown policy %q (want %s)", name, strings.Join(known, ", "))
}

// ParseList resolves a comma-separated list of policy names, e.g.
// "xy,yx,zigzag,least-congested".  The split respects parentheses, so
// composite names like "bydist(xy,yx,5)" survive as one element.  The
// empty string resolves to all shipped policies.
func ParseList(csv string) ([]Policy, error) {
	if strings.TrimSpace(csv) == "" {
		return Policies(), nil
	}
	parts := splitTopLevel(csv)
	out := make([]Policy, 0, len(parts))
	for _, part := range parts {
		p, err := Parse(part)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

package route

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/mesh"

	"repro/qnet/fault"
)

// stubFaults is a hand-built fault pattern: an explicit dead-link set
// plus ranks recomputed by the same BFS-from-tile-0 definition the
// real model uses, so tests can place holes exactly where they want
// them instead of fishing for a seed.
type stubFaults struct {
	g    mesh.Grid
	dead map[mesh.Link]bool
	rank []int
}

func newStubFaults(g mesh.Grid, dead ...mesh.Link) *stubFaults {
	s := &stubFaults{g: g, dead: make(map[mesh.Link]bool), rank: make([]int, g.Tiles())}
	for _, l := range dead {
		s.dead[l] = true
	}
	for i := range s.rank {
		s.rank[i] = -1
	}
	queue := []mesh.Coord{g.CoordOf(0)}
	s.rank[0] = 0
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for d := mesh.East; d <= mesh.South; d++ {
			if s.Dead(c, d) {
				continue
			}
			n := c.Step(d)
			if s.rank[g.Index(n)] == -1 {
				s.rank[g.Index(n)] = s.rank[g.Index(c)] + 1
				queue = append(queue, n)
			}
		}
	}
	return s
}

func (s *stubFaults) Dead(c mesh.Coord, d mesh.Direction) bool {
	n := c.Step(d)
	if !s.g.Contains(n) {
		return true
	}
	return s.dead[s.g.LinkFrom(c, d)]
}

func (s *stubFaults) Rank(c mesh.Coord) int { return s.rank[s.g.Index(c)] }

func testGrid(t *testing.T, w, h int) mesh.Grid {
	t.Helper()
	g, err := mesh.NewGrid(w, h)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// follow walks the hop sequence, asserting every hop stays on-grid and
// crosses no dead link, and returns the endpoint.
func follow(t *testing.T, g mesh.Grid, f Faults, src mesh.Coord, dirs []mesh.Direction) mesh.Coord {
	t.Helper()
	c := src
	for i, d := range dirs {
		if f != nil && f.Dead(c, d) {
			t.Fatalf("hop %d (%v from %v) crosses a dead link", i, d, c)
		}
		c = c.Step(d)
		if !g.Contains(c) {
			t.Fatalf("hop %d leaves the grid at %v", i, c)
		}
	}
	return c
}

func TestFaultAdaptiveHealthyIsMinimal(t *testing.T) {
	g := testGrid(t, 6, 5)
	pol := FaultAdaptive()
	for si := 0; si < g.Tiles(); si++ {
		for di := 0; di < g.Tiles(); di++ {
			src, dst := g.CoordOf(si), g.CoordOf(di)
			dirs, err := pol.Route(g, src, dst, nil)
			if err != nil {
				t.Fatalf("Route(%v,%v): %v", src, dst, err)
			}
			if end := follow(t, g, nil, src, dirs); end != dst {
				t.Fatalf("Route(%v,%v) ends at %v", src, dst, end)
			}
			manhattan := abs(dst.X-src.X) + abs(dst.Y-src.Y)
			if len(dirs) != manhattan {
				t.Fatalf("Route(%v,%v) takes %d hops, minimal is %d", src, dst, len(dirs), manhattan)
			}
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestFaultAdaptiveRoutesAroundHole(t *testing.T) {
	g := testGrid(t, 4, 4)
	src := mesh.Coord{X: 0, Y: 1}
	dst := mesh.Coord{X: 3, Y: 1}
	// Kill the whole row between src and dst: East out of (0,1), (1,1)
	// and (2,1).  Minimal XY paths are all blocked; a legal detour
	// exists through row 0 or row 2.
	f := newStubFaults(g,
		g.LinkFrom(mesh.Coord{X: 0, Y: 1}, mesh.East),
		g.LinkFrom(mesh.Coord{X: 1, Y: 1}, mesh.East),
		g.LinkFrom(mesh.Coord{X: 2, Y: 1}, mesh.East))
	dirs, err := FaultAdaptive().(FaultAware).RouteFaulty(g, src, dst, f, nil)
	if err != nil {
		t.Fatalf("RouteFaulty: %v", err)
	}
	if end := follow(t, g, f, src, dirs); end != dst {
		t.Fatalf("detour ends at %v, want %v", end, dst)
	}
	if len(dirs) <= 3 {
		t.Fatalf("blocked row crossed in %d hops — path must detour", len(dirs))
	}
}

func TestFaultAdaptiveUnreachable(t *testing.T) {
	g := testGrid(t, 3, 3)
	// Sever the corner (2,2) completely.
	corner := mesh.Coord{X: 2, Y: 2}
	f := newStubFaults(g,
		g.LinkFrom(corner, mesh.West),
		g.LinkFrom(corner, mesh.North))
	_, err := FaultAdaptive().(FaultAware).RouteFaulty(g, mesh.Coord{X: 0, Y: 0}, corner, f, nil)
	var unreachable *fault.UnreachableError
	if !errors.As(err, &unreachable) {
		t.Fatalf("severed corner: got %v (%T), want *fault.UnreachableError", err, err)
	}
	if unreachable.Dst != corner {
		t.Fatalf("error names dst %v, want %v", unreachable.Dst, corner)
	}
}

func TestFaultAdaptiveDeterministic(t *testing.T) {
	g := testGrid(t, 5, 5)
	f := newStubFaults(g,
		g.LinkFrom(mesh.Coord{X: 1, Y: 1}, mesh.East),
		g.LinkFrom(mesh.Coord{X: 2, Y: 0}, mesh.South),
		g.LinkFrom(mesh.Coord{X: 3, Y: 3}, mesh.North))
	pol := FaultAdaptive().(FaultAware)
	for si := 0; si < g.Tiles(); si++ {
		for di := 0; di < g.Tiles(); di++ {
			src, dst := g.CoordOf(si), g.CoordOf(di)
			a, errA := pol.RouteFaulty(g, src, dst, f, nil)
			b, errB := pol.RouteFaulty(g, src, dst, f, nil)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("Route(%v,%v): error flapped: %v vs %v", src, dst, errA, errB)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("Route(%v,%v) not deterministic: %v vs %v", src, dst, a, b)
			}
		}
	}
	if !IsDeterministic(FaultAdaptive()) {
		t.Fatal("fault-adaptive must declare itself deterministic (route-cache eligibility)")
	}
}

// TestFaultAdaptiveUpDownLegal pins the deadlock-freedom invariant
// directly: every returned path is up* then down* in the (rank,
// row-major index) key order — the property the escape-channel
// argument rests on.
func TestFaultAdaptiveUpDownLegal(t *testing.T) {
	g := testGrid(t, 5, 5)
	f := newStubFaults(g,
		g.LinkFrom(mesh.Coord{X: 0, Y: 0}, mesh.East),
		g.LinkFrom(mesh.Coord{X: 2, Y: 2}, mesh.East),
		g.LinkFrom(mesh.Coord{X: 2, Y: 2}, mesh.South),
		g.LinkFrom(mesh.Coord{X: 4, Y: 1}, mesh.South))
	key := func(c mesh.Coord) [2]int { return [2]int{f.Rank(c), g.Index(c)} }
	less := func(a, b [2]int) bool {
		return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1])
	}
	pol := FaultAdaptive().(FaultAware)
	for si := 0; si < g.Tiles(); si++ {
		for di := 0; di < g.Tiles(); di++ {
			src, dst := g.CoordOf(si), g.CoordOf(di)
			dirs, err := pol.RouteFaulty(g, src, dst, f, nil)
			if err != nil {
				t.Fatalf("Route(%v,%v): %v", src, dst, err)
			}
			c, phaseDown := src, false
			for i, d := range dirs {
				n := c.Step(d)
				down := less(key(c), key(n))
				if phaseDown && !down {
					t.Fatalf("Route(%v,%v) hop %d goes up after going down: %v",
						src, dst, i, dirs)
				}
				phaseDown = phaseDown || down
				c = n
			}
		}
	}
}

func TestParseFaultAdaptive(t *testing.T) {
	p, err := Parse("fault-adaptive")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Name() != "fault-adaptive" {
		t.Fatalf("Parse returned %q", p.Name())
	}
	if _, ok := p.(FaultAware); !ok {
		t.Fatal("parsed policy is not FaultAware")
	}
	if _, err := Parse("bogus"); err == nil {
		t.Fatal("Parse accepted an unknown policy")
	}
}

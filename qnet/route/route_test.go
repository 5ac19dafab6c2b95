package route

import (
	"fmt"
	"testing"

	"repro/internal/mesh"
)

// grid returns an 8x8 test mesh.
func grid(t *testing.T) mesh.Grid {
	t.Helper()
	g, err := mesh.NewGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// endpoints covers all four quadrants, straight lines and the
// degenerate same-tile path.
var endpoints = []struct{ src, dst mesh.Coord }{
	{mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 5, Y: 3}}, // E+S
	{mesh.Coord{X: 5, Y: 3}, mesh.Coord{X: 0, Y: 0}}, // W+N
	{mesh.Coord{X: 0, Y: 5}, mesh.Coord{X: 6, Y: 1}}, // E+N (mixed signs)
	{mesh.Coord{X: 6, Y: 1}, mesh.Coord{X: 0, Y: 5}}, // W+S (mixed signs)
	{mesh.Coord{X: 2, Y: 4}, mesh.Coord{X: 7, Y: 4}}, // straight E
	{mesh.Coord{X: 3, Y: 7}, mesh.Coord{X: 3, Y: 2}}, // straight N
	{mesh.Coord{X: 4, Y: 4}, mesh.Coord{X: 4, Y: 4}}, // same tile
}

// TestPoliciesAreMinimal asserts every shipped policy produces a path
// of exactly Manhattan length that ends at the destination and stays
// on the grid.
func TestPoliciesAreMinimal(t *testing.T) {
	g := grid(t)
	for _, p := range Policies() {
		for _, ep := range endpoints {
			dirs, err := p.Route(g, ep.src, ep.dst, nil)
			if err != nil {
				t.Fatalf("%s %v->%v: %v", p.Name(), ep.src, ep.dst, err)
			}
			if len(dirs) != mesh.Manhattan(ep.src, ep.dst) {
				t.Errorf("%s %v->%v: %d hops, want %d (minimal)",
					p.Name(), ep.src, ep.dst, len(dirs), mesh.Manhattan(ep.src, ep.dst))
			}
			end, err := g.Walk(ep.src, dirs)
			if err != nil {
				t.Fatalf("%s %v->%v: path leaves grid: %v", p.Name(), ep.src, ep.dst, err)
			}
			if end != ep.dst {
				t.Errorf("%s %v->%v: path ends at %v", p.Name(), ep.src, ep.dst, end)
			}
		}
	}
}

// TestPoliciesObeyDeadlockFreeTurnModels asserts the structural
// property each policy's deadlock-freedom proof rests on: dimension
// order turns at most once, and zigzag and least-congested never take
// a positive-to-negative turn (the negative-first turn model).
func TestPoliciesObeyDeadlockFreeTurnModels(t *testing.T) {
	g := grid(t)
	for _, ep := range endpoints {
		for _, p := range []Policy{XYOrder(), YXOrder()} {
			dirs, err := p.Route(g, ep.src, ep.dst, nil)
			if err != nil {
				t.Fatal(err)
			}
			if turns := Turns(dirs); turns > 1 {
				t.Errorf("%s %v->%v: %d turns, dimension order allows at most 1", p.Name(), ep.src, ep.dst, turns)
			}
		}
		for _, p := range []Policy{ZigZag(), LeastCongested()} {
			dirs, err := p.Route(g, ep.src, ep.dst, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(dirs); i++ {
				if !negative(dirs[i-1]) && negative(dirs[i]) {
					t.Errorf("%s %v->%v: forbidden positive-to-negative turn %v->%v at hop %d",
						p.Name(), ep.src, ep.dst, dirs[i-1], dirs[i], i)
				}
			}
		}
	}
}

// TestXYOrderMatchesMeshRoute pins the default policy to the
// dimension-order reference path, the parity anchor of the routing
// refactor.
func TestXYOrderMatchesMeshRoute(t *testing.T) {
	g := grid(t)
	for _, ep := range endpoints {
		want, err := g.Route(ep.src, ep.dst)
		if err != nil {
			t.Fatal(err)
		}
		got, err := XYOrder().Route(g, ep.src, ep.dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("XYOrder %v->%v: %v, want mesh reference %v", ep.src, ep.dst, got, want)
		}
	}
}

// TestZigZagSpreadsTurns asserts the staircase actually staircases on
// a same-sign diagonal: a kxk diagonal must turn at every interior
// hop, far above dimension order's single turn.
func TestZigZagSpreadsTurns(t *testing.T) {
	g := grid(t)
	dirs, err := ZigZag().Route(g, mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 5, Y: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if turns := Turns(dirs); turns != len(dirs)-1 {
		t.Errorf("zigzag diagonal turned %d times over %d hops, want %d (every interior hop)",
			turns, len(dirs), len(dirs)-1)
	}
	// Mixed-sign quadrants degenerate to dimension order: the negative
	// dimension must complete first.
	dirs, err = ZigZag().Route(g, mesh.Coord{X: 0, Y: 5}, mesh.Coord{X: 4, Y: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dirs {
		if i < 5 && d != mesh.North {
			t.Fatalf("mixed-sign zigzag path %v: negative phase not first", dirs)
		}
	}
}

// fakeLoads steers the adaptive policy: one axis reports heavy
// pressure everywhere.
type fakeLoads struct{ heavyAxis int }

func (f fakeLoads) AxisLoad(_ mesh.Coord, axis int) float64 {
	if axis == f.heavyAxis {
		return 10
	}
	return 0
}

func (f fakeLoads) StorageLoad(mesh.Coord, mesh.Direction) float64 { return 0 }

// TestLeastCongestedFollowsLoads asserts the adaptive policy avoids
// the loaded axis while it can: with the X axis saturated it must
// spend its Y hops first (and vice versa), and with nil loads it
// behaves deterministically.
func TestLeastCongestedFollowsLoads(t *testing.T) {
	g := grid(t)
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 4, Y: 3}
	dirs, err := LeastCongested().Route(g, src, dst, fakeLoads{heavyAxis: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dirs {
		if i < 3 && d.Axis() != 1 {
			t.Fatalf("with X saturated, path %v did not spend Y hops first", dirs)
		}
	}
	dirs, err = LeastCongested().Route(g, src, dst, fakeLoads{heavyAxis: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dirs {
		if i < 4 && d.Axis() != 0 {
			t.Fatalf("with Y saturated, path %v did not spend X hops first", dirs)
		}
	}
	a, err := LeastCongested().Route(g, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LeastCongested().Route(g, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("nil-loads routing not deterministic: %v vs %v", a, b)
	}
}

// TestTurns covers the turn counter.
func TestTurns(t *testing.T) {
	cases := []struct {
		dirs []mesh.Direction
		want int
	}{
		{nil, 0},
		{[]mesh.Direction{mesh.East, mesh.East}, 0},
		{[]mesh.Direction{mesh.East, mesh.South}, 1},
		{[]mesh.Direction{mesh.East, mesh.South, mesh.East, mesh.South}, 3},
		{[]mesh.Direction{mesh.North, mesh.North, mesh.West}, 1},
	}
	for _, tc := range cases {
		if got := Turns(tc.dirs); got != tc.want {
			t.Errorf("Turns(%v) = %d, want %d", tc.dirs, got, tc.want)
		}
	}
}

// TestParse covers name resolution, defaults and error cases.
func TestParse(t *testing.T) {
	for _, name := range Names() {
		p, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("Parse(%q).Name() = %q", name, p.Name())
		}
	}
	if p, err := Parse(" ZigZag "); err != nil || p.Name() != "zigzag" {
		t.Errorf("case/space-insensitive parse failed: %v, %v", p, err)
	}
	if p, err := Parse(""); err != nil || p.Name() != DefaultName {
		t.Errorf("empty name should resolve to the default policy, got %v, %v", p, err)
	}
	if _, err := Parse("wormhole"); err == nil {
		t.Error("unknown policy name accepted")
	}
	ps, err := ParseList("xy,least-congested")
	if err != nil || len(ps) != 2 || ps[1].Name() != "least-congested" {
		t.Errorf("ParseList failed: %v, %v", ps, err)
	}
	if ps, err := ParseList(""); err != nil || len(ps) != len(Policies()) {
		t.Errorf("empty list should resolve to all policies, got %v, %v", ps, err)
	}
	if _, err := ParseList("xy,nope"); err == nil {
		t.Error("bad list entry accepted")
	}
}

// TestNameOf pins the nil canonicalization cache keys rely on.
func TestNameOf(t *testing.T) {
	if NameOf(nil) != DefaultName {
		t.Errorf("NameOf(nil) = %q, want %q", NameOf(nil), DefaultName)
	}
	if NameOf(YXOrder()) != "yx" {
		t.Errorf("NameOf(YXOrder()) = %q", NameOf(YXOrder()))
	}
}

// TestRouteValidatesEndpoints asserts off-grid endpoints error for
// every policy rather than producing a path.
func TestRouteValidatesEndpoints(t *testing.T) {
	g := grid(t)
	bad := mesh.Coord{X: 9, Y: 0}
	for _, p := range Policies() {
		if _, err := p.Route(g, bad, mesh.Coord{X: 0, Y: 0}, nil); err == nil {
			t.Errorf("%s accepted an off-grid source", p.Name())
		}
		if _, err := p.Route(g, mesh.Coord{X: 0, Y: 0}, bad, nil); err == nil {
			t.Errorf("%s accepted an off-grid destination", p.Name())
		}
	}
}

// TestDeterministicCapability pins which shipped policies declare
// load-independence: the static orders are cacheable, the adaptive
// least-congested policy is not.  Getting this wrong either disables
// the simulator's route cache (slow) or caches an adaptive policy's
// first answer (wrong results), so it is pinned explicitly.
func TestDeterministicCapability(t *testing.T) {
	for _, tc := range []struct {
		p    Policy
		want bool
	}{
		{XYOrder(), true},
		{YXOrder(), true},
		{ZigZag(), true},
		{LeastCongested(), false},
	} {
		if got := IsDeterministic(tc.p); got != tc.want {
			t.Errorf("IsDeterministic(%s) = %v, want %v", tc.p.Name(), got, tc.want)
		}
	}
	if IsDeterministic(nil) {
		t.Error("IsDeterministic(nil) should be false")
	}
}

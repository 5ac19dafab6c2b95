package mesh

import (
	"fmt"
	"testing"
	"testing/quick"
)

func mustGrid(t *testing.T, w, h int) Grid {
	t.Helper()
	g, err := NewGrid(w, h)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(0, 5); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := NewGrid(5, -1); err == nil {
		t.Error("negative height should fail")
	}
}

func TestGridBasics(t *testing.T) {
	g := mustGrid(t, 16, 16)
	if g.Tiles() != 256 {
		t.Errorf("tiles = %d, want 256", g.Tiles())
	}
	if !g.Contains(Coord{15, 15}) || g.Contains(Coord{16, 0}) || g.Contains(Coord{0, -1}) {
		t.Error("Contains is wrong at the boundary")
	}
}

func TestIndexCoordRoundTrip(t *testing.T) {
	g := mustGrid(t, 7, 3)
	for i := 0; i < g.Tiles(); i++ {
		if got := g.Index(g.CoordOf(i)); got != i {
			t.Errorf("round trip of %d gave %d", i, got)
		}
	}
	if g.Index(Coord{2, 1}) != 9 {
		t.Errorf("Index(2,1) = %d, want 9", g.Index(Coord{2, 1}))
	}
}

func TestIndexPanicsOutside(t *testing.T) {
	g := mustGrid(t, 4, 4)
	defer func() {
		if recover() == nil {
			t.Error("Index outside grid should panic")
		}
	}()
	g.Index(Coord{4, 0})
}

func TestManhattan(t *testing.T) {
	cases := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0}, Coord{0, 0}, 0},
		{Coord{0, 0}, Coord{3, 4}, 7},
		{Coord{5, 2}, Coord{1, 9}, 11},
	}
	for _, c := range cases {
		if got := Manhattan(c.a, c.b); got != c.want {
			t.Errorf("Manhattan(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Manhattan(c.b, c.a); got != c.want {
			t.Errorf("Manhattan not symmetric for %v,%v", c.a, c.b)
		}
	}
}

func TestDirectionAxis(t *testing.T) {
	if East.Axis() != 0 || West.Axis() != 0 {
		t.Error("East/West should be axis 0")
	}
	if North.Axis() != 1 || South.Axis() != 1 {
		t.Error("North/South should be axis 1")
	}
}

func TestRouteDimensionOrder(t *testing.T) {
	g := mustGrid(t, 8, 8)
	dirs, err := g.Route(Coord{1, 1}, Coord{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	// X first (3 East), then Y (5 South).
	if len(dirs) != 8 {
		t.Fatalf("route length %d, want 8", len(dirs))
	}
	for i, d := range dirs {
		if i < 3 && d != East {
			t.Errorf("hop %d = %v, want East", i, d)
		}
		if i >= 3 && d != South {
			t.Errorf("hop %d = %v, want South", i, d)
		}
	}
}

func TestRouteWestNorth(t *testing.T) {
	g := mustGrid(t, 8, 8)
	dirs, err := g.Route(Coord{5, 5}, Coord{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	wantWest, wantNorth := 3, 4
	var west, north int
	for _, d := range dirs {
		switch d {
		case West:
			west++
		case North:
			north++
		default:
			t.Errorf("unexpected direction %v", d)
		}
	}
	if west != wantWest || north != wantNorth {
		t.Errorf("got %d West %d North, want %d/%d", west, north, wantWest, wantNorth)
	}
}

func TestRouteErrors(t *testing.T) {
	g := mustGrid(t, 4, 4)
	if _, err := g.Route(Coord{-1, 0}, Coord{0, 0}); err == nil {
		t.Error("route from outside should fail")
	}
	if _, err := g.Route(Coord{0, 0}, Coord{9, 9}); err == nil {
		t.Error("route to outside should fail")
	}
}

func TestRouteTiles(t *testing.T) {
	g := mustGrid(t, 8, 8)
	dirs, err := g.Route(Coord{0, 0}, Coord{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	tiles := follow(Coord{0, 0}, dirs)
	want := []Coord{{0, 0}, {1, 0}, {2, 0}, {2, 1}}
	if len(tiles) != len(want) {
		t.Fatalf("path %v, want %v", tiles, want)
	}
	for i := range want {
		if tiles[i] != want[i] {
			t.Fatalf("path %v, want %v", tiles, want)
		}
	}
}

// follow returns the tiles a hop sequence from src visits, src first.
func follow(src Coord, dirs []Direction) []Coord {
	tiles := []Coord{src}
	for _, d := range dirs {
		tiles = append(tiles, tiles[len(tiles)-1].Step(d))
	}
	return tiles
}

// TestWalk pins Grid.Walk: it returns the tile a path ends on, src for
// an empty path, and an error for a source off the grid or a path that
// leaves it, even when the path would come back.
func TestWalk(t *testing.T) {
	g := mustGrid(t, 4, 3)
	for _, tc := range []struct {
		src  Coord
		dirs []Direction
		want Coord
		ok   bool
	}{
		{Coord{0, 0}, nil, Coord{0, 0}, true},
		{Coord{0, 0}, []Direction{East, East, South, South}, Coord{2, 2}, true},
		{Coord{3, 2}, []Direction{North, West, North, West}, Coord{1, 0}, true},
		{Coord{0, 0}, []Direction{West, East}, Coord{}, false},
		{Coord{3, 0}, []Direction{East}, Coord{}, false},
		{Coord{0, 2}, []Direction{South}, Coord{}, false},
		{Coord{4, 0}, nil, Coord{}, false},
	} {
		got, err := g.Walk(tc.src, tc.dirs)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("Walk(%v, %v) = %v, %v; want %v, ok %v", tc.src, tc.dirs, got, err, tc.want, tc.ok)
		}
	}
}

// Property: routes are valid paths of the right length entirely on the
// grid, turning at most once between axes (dimension order).
func TestRouteProperty(t *testing.T) {
	g := mustGrid(t, 16, 16)
	f := func(sx, sy, dx, dy uint8) bool {
		src := Coord{int(sx) % 16, int(sy) % 16}
		dst := Coord{int(dx) % 16, int(dy) % 16}
		dirs, err := g.Route(src, dst)
		if err != nil {
			return false
		}
		end, err := g.Walk(src, dirs)
		if err != nil || end != dst {
			return false
		}
		tiles := follow(src, dirs)
		if len(tiles) != Manhattan(src, dst)+1 {
			return false
		}
		if tiles[0] != src || tiles[len(tiles)-1] != dst {
			return false
		}
		axisSwitches := 0
		for i := 1; i < len(dirs); i++ {
			if dirs[i].Axis() != dirs[i-1].Axis() {
				axisSwitches++
			}
		}
		for _, c := range tiles {
			if !g.Contains(c) {
				return false
			}
		}
		return axisSwitches <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// linkBetween returns the canonical link connecting two adjacent tiles,
// derived from the two endpoints: the reference LinkFrom is checked
// against.
func linkBetween(a, b Coord) (Link, error) {
	if Manhattan(a, b) != 1 {
		return Link{}, fmt.Errorf("mesh: tiles %v and %v are not adjacent", a, b)
	}
	switch {
	case b.X == a.X+1:
		return Link{From: a, Dir: East}, nil
	case a.X == b.X+1:
		return Link{From: b, Dir: East}, nil
	case b.Y == a.Y+1:
		return Link{From: a, Dir: South}, nil
	default:
		return Link{From: b, Dir: South}, nil
	}
}

func TestLinkBetween(t *testing.T) {
	l, err := linkBetween(Coord{3, 3}, Coord{4, 3})
	if err != nil || l.From != (Coord{3, 3}) || l.Dir != East {
		t.Errorf("link = %+v err=%v, want {(3,3) East}", l, err)
	}
	// Canonicalization: reversed arguments give the same link.
	l2, err := linkBetween(Coord{4, 3}, Coord{3, 3})
	if err != nil || l2 != l {
		t.Errorf("reversed link = %+v, want %+v", l2, l)
	}
	l3, err := linkBetween(Coord{2, 5}, Coord{2, 4})
	if err != nil || l3.From != (Coord{2, 4}) || l3.Dir != South {
		t.Errorf("vertical link = %+v err=%v", l3, err)
	}
	if _, err := linkBetween(Coord{0, 0}, Coord{2, 0}); err == nil {
		t.Error("non-adjacent tiles should fail")
	}
	if _, err := linkBetween(Coord{0, 0}, Coord{0, 0}); err == nil {
		t.Error("identical tiles should fail")
	}
}

func TestLinksCount(t *testing.T) {
	g := mustGrid(t, 4, 3)
	// Horizontal: 3 per row × 3 rows = 9; vertical: 4 per column pair × 2 = 8.
	if got := len(g.Links()); got != 17 {
		t.Errorf("links = %d, want 17", got)
	}
	seen := map[Link]bool{}
	for _, l := range g.Links() {
		if seen[l] {
			t.Errorf("duplicate link %+v", l)
		}
		seen[l] = true
	}
}

func TestLinkIndexMatchesLinksOrder(t *testing.T) {
	// LinkIndex must agree with Links() enumeration on every grid shape,
	// including degenerate 1-wide and 1-tall meshes: that equivalence is
	// what lets netsim swap its map[Link] G-node lookup for a dense slice.
	for _, dims := range [][2]int{{1, 1}, {1, 5}, {5, 1}, {2, 2}, {4, 3}, {5, 5}, {16, 16}} {
		g := mustGrid(t, dims[0], dims[1])
		links := g.Links()
		if got := g.NumLinks(); got != len(links) {
			t.Errorf("%dx%d: NumLinks = %d, Links() has %d", dims[0], dims[1], got, len(links))
		}
		for i, l := range links {
			if got := g.LinkIndex(l); got != i {
				t.Errorf("%dx%d: LinkIndex(%v/%v) = %d, want %d", dims[0], dims[1], l.From, l.Dir, got, i)
			}
		}
	}
}

func TestLinkIndexPanicsOffGrid(t *testing.T) {
	g := mustGrid(t, 3, 3)
	for _, l := range []Link{
		{From: Coord{2, 0}, Dir: East},  // off the east edge
		{From: Coord{0, 2}, Dir: South}, // off the south edge
		{From: Coord{3, 0}, Dir: East},  // source outside
		{From: Coord{1, 1}, Dir: West},  // non-canonical orientation
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LinkIndex(%v/%v) should panic", l.From, l.Dir)
				}
			}()
			g.LinkIndex(l)
		}()
	}
}

func TestLinkFromMatchesLinkBetween(t *testing.T) {
	// For every on-grid hop, LinkFrom must produce the same canonical
	// link linkBetween derives from the two endpoints.
	g := mustGrid(t, 4, 3)
	for i := 0; i < g.Tiles(); i++ {
		c := g.CoordOf(i)
		for _, d := range []Direction{East, West, North, South} {
			n := c.Step(d)
			if !g.Contains(n) {
				continue
			}
			want, err := linkBetween(c, n)
			if err != nil {
				t.Fatal(err)
			}
			if got := g.LinkFrom(c, d); got != want {
				t.Errorf("LinkFrom(%v, %v) = %+v, want %+v", c, d, got, want)
			}
		}
	}
}

func TestRowMajorPlacement(t *testing.T) {
	g := mustGrid(t, 4, 4)
	p, err := RowMajorPlacement(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Home(0) != (Coord{0, 0}) || p.Home(5) != (Coord{1, 1}) || p.Home(15) != (Coord{3, 3}) {
		t.Error("row-major homes wrong")
	}
}

func TestSnakePlacementAdjacency(t *testing.T) {
	// The Mobile Qubit Layout property: consecutive logical qubits are
	// adjacent, so the QFT's visit order is all single-hop moves.
	g := mustGrid(t, 16, 16)
	p, err := SnakePlacement(g, 256)
	if err != nil {
		t.Fatal(err)
	}
	for q := 1; q < 256; q++ {
		if d := Manhattan(p.Home(q-1), p.Home(q)); d != 1 {
			t.Errorf("qubits %d and %d are %d hops apart, want 1", q-1, q, d)
		}
	}
}

func TestPlacementValidation(t *testing.T) {
	g := mustGrid(t, 4, 4)
	if _, err := RowMajorPlacement(g, 17); err == nil {
		t.Error("too many qubits should fail")
	}
	if _, err := SnakePlacement(g, 0); err == nil {
		t.Error("zero qubits should fail")
	}
}

func TestHomePanicsOutOfRange(t *testing.T) {
	g := mustGrid(t, 4, 4)
	p, _ := RowMajorPlacement(g, 4)
	defer func() {
		if recover() == nil {
			t.Error("Home out of range should panic")
		}
	}()
	p.Home(4)
}

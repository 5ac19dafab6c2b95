// Package mesh models the communication-grid topology of the paper's
// Section 5 (Figure 13): a 2-D mesh of tiles, each holding a logical
// qubit (LQ) site with its associated teleporter (T'), corrector (C) and
// purifier (P) nodes, with generator (G) nodes on the links between
// adjacent tiles.
//
// Path construction lives behind the routing layer (package
// qnet/route): a route.Policy turns a src/dst pair into a hop
// sequence, and Grid.Walk follows that sequence to the tile it ends
// on.  Grid.Route remains as the dimension-ordered (X then Y)
// reference path — the paper's hardwired routing — which the default
// policy delegates to.
package mesh

import "fmt"

// Coord is a tile coordinate on the mesh.
type Coord struct {
	X, Y int
}

// String renders the coordinate as (x,y).
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Manhattan returns the Manhattan distance between two tiles — the hop
// count of a dimension-ordered route.
func Manhattan(a, b Coord) int {
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Direction is an axis-aligned unit movement on the mesh.  It is one
// byte, so a path costs a byte per hop.
type Direction uint8

// The four mesh directions.  X-direction traffic (East/West) and
// Y-direction traffic (North/South) use distinct teleporter sets in a T'
// node (Figure 6).
const (
	East Direction = iota
	West
	North
	South
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case East:
		return "East"
	case West:
		return "West"
	case North:
		return "North"
	case South:
		return "South"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Axis returns 0 for X-direction movement (East/West) and 1 for
// Y-direction movement (North/South).
func (d Direction) Axis() int {
	if d == East || d == West {
		return 0
	}
	return 1
}

// Opposite returns the reverse direction: traffic traveling in
// direction d arrives at the next tile from d.Opposite().
func (d Direction) Opposite() Direction {
	switch d {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	default:
		return North
	}
}

// Step returns the coordinate one tile away in the direction.
func (c Coord) Step(d Direction) Coord {
	switch d {
	case East:
		return Coord{c.X + 1, c.Y}
	case West:
		return Coord{c.X - 1, c.Y}
	case North:
		return Coord{c.X, c.Y - 1}
	default:
		return Coord{c.X, c.Y + 1}
	}
}

// Grid is a rectangular mesh of tiles.
type Grid struct {
	Width, Height int
}

// NewGrid validates and builds a mesh of the given dimensions.
func NewGrid(width, height int) (Grid, error) {
	if width < 1 || height < 1 {
		return Grid{}, fmt.Errorf("mesh: grid dimensions must be >= 1, got %dx%d", width, height)
	}
	return Grid{Width: width, Height: height}, nil
}

// Tiles returns the number of tiles.
func (g Grid) Tiles() int { return g.Width * g.Height }

// Contains reports whether c lies on the grid.
func (g Grid) Contains(c Coord) bool {
	return c.X >= 0 && c.X < g.Width && c.Y >= 0 && c.Y < g.Height
}

// Index linearizes a coordinate in row-major order.
func (g Grid) Index(c Coord) int {
	if !g.Contains(c) {
		panic(fmt.Sprintf("mesh: coordinate %v outside %dx%d grid", c, g.Width, g.Height))
	}
	return c.Y*g.Width + c.X
}

// CoordOf is the inverse of Index.
func (g Grid) CoordOf(i int) Coord {
	if i < 0 || i >= g.Tiles() {
		panic(fmt.Sprintf("mesh: index %d outside %dx%d grid", i, g.Width, g.Height))
	}
	return Coord{X: i % g.Width, Y: i / g.Width}
}

// Route returns the dimension-ordered (X then Y) path from src to dst as
// a sequence of directions.  An empty path means src == dst.
func (g Grid) Route(src, dst Coord) ([]Direction, error) {
	if !g.Contains(src) {
		return nil, fmt.Errorf("mesh: route source %v outside grid", src)
	}
	if !g.Contains(dst) {
		return nil, fmt.Errorf("mesh: route destination %v outside grid", dst)
	}
	path := make([]Direction, 0, Manhattan(src, dst))
	for x := src.X; x < dst.X; x++ {
		path = append(path, East)
	}
	for x := src.X; x > dst.X; x-- {
		path = append(path, West)
	}
	for y := src.Y; y < dst.Y; y++ {
		path = append(path, South)
	}
	for y := src.Y; y > dst.Y; y-- {
		path = append(path, North)
	}
	return path, nil
}

// Walk follows a hop sequence from src and returns the tile it ends on.
// It validates that every tile on the way lies on the grid, so a
// routing policy that walks off the mesh is caught here rather than
// corrupting the simulation, and it stores no tile, so checking a path
// allocates nothing.
func (g Grid) Walk(src Coord, dirs []Direction) (Coord, error) {
	if !g.Contains(src) {
		return Coord{}, fmt.Errorf("mesh: path source %v outside %dx%d grid", src, g.Width, g.Height)
	}
	cur := src
	for i, d := range dirs {
		cur = cur.Step(d)
		if !g.Contains(cur) {
			return Coord{}, fmt.Errorf("mesh: path leaves the %dx%d grid at hop %d (%v)", g.Width, g.Height, i, cur)
		}
	}
	return cur, nil
}

// Link identifies an undirected mesh link by its lexicographically
// smaller endpoint and orientation.  Each link hosts one G node
// continuously generating EPR pairs between its two T' nodes.
type Link struct {
	From Coord
	Dir  Direction // East or South only (canonical orientation)
}

// LinkFrom returns the canonical link crossed by a hop leaving c in
// direction d: East/South hops own their link, West/North hops use the
// neighbor's East/South link.  It does not validate that the link lies
// on the grid; pair it with LinkIndex (which does) or Contains.
func (g Grid) LinkFrom(c Coord, d Direction) Link {
	switch d {
	case East, South:
		return Link{From: c, Dir: d}
	case West:
		return Link{From: Coord{c.X - 1, c.Y}, Dir: East}
	default: // North
		return Link{From: Coord{c.X, c.Y - 1}, Dir: South}
	}
}

// NumLinks returns the number of links of the grid: (W-1)·H East links
// plus W·(H-1) South links.
func (g Grid) NumLinks() int {
	return (g.Width-1)*g.Height + g.Width*(g.Height-1)
}

// LinkIndex returns the dense index of a link, in exactly the order
// Links enumerates them, so a []T of length NumLinks indexed by
// LinkIndex replaces a map[Link]T on hot lookup paths.  It panics on a
// link that does not lie on the grid (an off-grid endpoint, or a
// non-canonical direction), which — like Index — indicates a broken
// caller rather than a recoverable condition.
func (g Grid) LinkIndex(l Link) int {
	c := l.From
	valid := g.Contains(c)
	if valid {
		switch l.Dir {
		case East:
			valid = c.X+1 < g.Width
		case South:
			valid = c.Y+1 < g.Height
		default:
			valid = false
		}
	}
	if !valid {
		panic(fmt.Sprintf("mesh: link %v/%v not on %dx%d grid", l.From, l.Dir, g.Width, g.Height))
	}
	// Links() walks rows in order; every row before c.Y is complete and
	// contributes (W-1) East + W South links (the South links exist
	// because that row is above c.Y <= H-1, hence not the last row).
	idx := c.Y * (2*g.Width - 1)
	// Tiles before c.X in row c.Y: an East link each (they all precede
	// the last column, since c.X is on the grid), plus a South link each
	// when this is not the last row.
	idx += c.X
	if c.Y+1 < g.Height {
		idx += c.X
	}
	if l.Dir == South && c.X+1 < g.Width {
		idx++ // this tile's East link precedes its South link
	}
	return idx
}

// Links enumerates every link of the grid in deterministic order.
func (g Grid) Links() []Link {
	links := make([]Link, 0, 2*g.Tiles())
	for y := 0; y < g.Height; y++ {
		for x := 0; x < g.Width; x++ {
			if x+1 < g.Width {
				links = append(links, Link{From: Coord{x, y}, Dir: East})
			}
			if y+1 < g.Height {
				links = append(links, Link{From: Coord{x, y}, Dir: South})
			}
		}
	}
	return links
}

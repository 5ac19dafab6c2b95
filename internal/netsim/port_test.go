package netsim

import (
	"fmt"
	"testing"

	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestPortsMatchMeshLookups checks the port table build resolves
// against the per-hop lookups it replaces.  For every tile and
// direction of grids with one tile, one row, one column, an odd
// rectangle and the paper's 16×16 mesh, the port must hold the
// canonical link index, that link's G node, the sending tile's
// teleporter set for the hop's axis, and the receiving tile's incoming
// storage and index; a direction that leaves the mesh must have the
// zero port.
func TestPortsMatchMeshLookups(t *testing.T) {
	dirs := []mesh.Direction{mesh.East, mesh.West, mesh.North, mesh.South}
	for _, wh := range [][2]int{{1, 1}, {1, 6}, {6, 1}, {3, 4}, {16, 16}} {
		g := grid(t, wh[0], wh[1])
		t.Run(fmt.Sprintf("%dx%d", g.Width, g.Height), func(t *testing.T) {
			s := &simulator{cfg: DefaultConfig(g, HomeBase, 16, 16, 8), engine: sim.New()}
			if err := s.build(workload.QFT(g.Tiles())); err != nil {
				t.Fatal(err)
			}
			if len(s.ports) != 4*g.Tiles() {
				t.Fatalf("%d ports, want 4 per tile (%d)", len(s.ports), 4*g.Tiles())
			}
			onMesh := 0
			for i := 0; i < g.Tiles(); i++ {
				c := g.CoordOf(i)
				for _, d := range dirs {
					got := s.ports[4*i+int(d)]
					next := c.Step(d)
					if !g.Contains(next) {
						if got != (port{}) {
							t.Errorf("%v %v leaves the mesh but has port %+v", c, d, got)
						}
						continue
					}
					onMesh++
					li := g.LinkIndex(g.LinkFrom(c, d))
					want := port{
						link:    li,
						gen:     s.gnodes[li],
						tele:    s.nodes[g.Index(c)].sets[d.Axis()],
						storage: s.nodes[g.Index(next)].storage[d.Opposite()],
						to:      g.Index(next),
					}
					if want.gen == nil || want.tele == nil || want.storage == nil {
						t.Fatalf("%v %v: a lookup found no unit: %+v", c, d, want)
					}
					if got != want {
						t.Errorf("%v %v: port %+v, want %+v", c, d, got, want)
					}
				}
			}
			// Every link is crossed in both directions.
			if onMesh != 2*g.NumLinks() {
				t.Errorf("%d on-mesh ports, want %d (2 per link)", onMesh, 2*g.NumLinks())
			}
		})
	}
}

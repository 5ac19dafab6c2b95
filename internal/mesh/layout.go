package mesh

import "fmt"

// Placement maps logical qubits to home tiles on the grid.
type Placement struct {
	homes []Coord
}

// RowMajorPlacement assigns logical qubit i to tile i in row-major
// order — the basic layout on the left of the paper's Figure 15 and the
// natural reading of Figure 13.
func RowMajorPlacement(g Grid, qubits int) (*Placement, error) {
	if qubits < 1 || qubits > g.Tiles() {
		return nil, fmt.Errorf("mesh: %d qubits do not fit a %dx%d grid", qubits, g.Width, g.Height)
	}
	homes := make([]Coord, qubits)
	for i := range homes {
		homes[i] = g.CoordOf(i)
	}
	return &Placement{homes: homes}, nil
}

// SnakePlacement assigns logical qubits along a boustrophedon path
// (left-to-right, then right-to-left on the next row).  This is the
// Mobile Qubit Layout of Figure 15: consecutive logical qubits are
// physically adjacent, so the QFT's walk from qubit to qubit is a
// sequence of single-hop moves.
func SnakePlacement(g Grid, qubits int) (*Placement, error) {
	if qubits < 1 || qubits > g.Tiles() {
		return nil, fmt.Errorf("mesh: %d qubits do not fit a %dx%d grid", qubits, g.Width, g.Height)
	}
	homes := make([]Coord, qubits)
	for i := range homes {
		y := i / g.Width
		x := i % g.Width
		if y%2 == 1 {
			x = g.Width - 1 - x
		}
		homes[i] = Coord{X: x, Y: y}
	}
	return &Placement{homes: homes}, nil
}

// Home returns logical qubit q's home tile.
func (p *Placement) Home(q int) Coord {
	if q < 0 || q >= len(p.homes) {
		panic(fmt.Sprintf("mesh: logical qubit %d out of range [0,%d)", q, len(p.homes)))
	}
	return p.homes[q]
}

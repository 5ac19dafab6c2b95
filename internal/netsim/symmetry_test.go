package netsim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/workload"

	"repro/qnet/route"
)

// TestSymmetryRelations checks two relations a mesh model owes its
// geometry, on QFT over every tile of 4×4, 3×5 and 2×6 under both
// layouts, from 1024 units of each resource down to one purifier.
//
//   - Transpose: a W×H run under xy equals the H×W run under yx, with
//     each qubit relabeled so its home maps to the transposed tile.
//   - Mirror: a W×H run under xy equals the run mirrored by x → W−1−x,
//     with each qubit relabeled the same way.
//
// Equal means equal Exec, Events, PairHops, Turns and mean and max
// channel latency.  Unlike the goldens, the relations come from the
// geometry, not from the code.  The runs listed in broken do break a
// relation today: an arriving batch takes its two endpoint purifiers in
// tile-index order, and mirroring or transposing the mesh reverses that
// order on some channels, so with few purifiers a waiting batch holds
// the other endpoint.  Every listed run must still break its relation,
// so the list stays honest; a symmetric purifier order is to empty it.
func TestSymmetryRelations(t *testing.T) {
	broken := map[string]bool{}
	for _, g := range []string{"4x4", "3x5", "2x6"} {
		for _, units := range []string{"21/21/5", "1024/1024/1", "2/3/1"} {
			broken[g+"/MobileQubit/"+units+"/mirror"] = true
		}
	}
	broken["4x4/MobileQubit/1024/1024/1/transpose"] = true
	broken["2x6/MobileQubit/1024/1024/1/transpose"] = true

	for _, wh := range [][2]int{{4, 4}, {3, 5}, {2, 6}} {
		w, h := wh[0], wh[1]
		g, gt := grid(t, w, h), grid(t, h, w)
		prog := workload.QFT(g.Tiles())
		for _, layout := range []Layout{HomeBase, MobileQubit} {
			for _, u := range [][3]int{{1024, 1024, 1024}, {16, 16, 16}, {21, 21, 5}, {1024, 1024, 1}, {2, 3, 1}} {
				name := fmt.Sprintf("%dx%d/%v/%d/%d/%d", w, h, layout, u[0], u[1], u[2])
				cfg := DefaultConfig(g, layout, u[0], u[1], u[2])
				want := symmetryRun(t, cfg, prog)
				transposed := cfg
				transposed.Grid, transposed.Route = gt, route.YXOrder()
				for _, rel := range []struct {
					name string
					cfg  Config
					tile func(mesh.Coord) mesh.Coord
				}{
					{"transpose", transposed, func(c mesh.Coord) mesh.Coord { return mesh.Coord{X: c.Y, Y: c.X} }},
					{"mirror", cfg, func(c mesh.Coord) mesh.Coord { return mesh.Coord{X: w - 1 - c.X, Y: c.Y} }},
				} {
					got := symmetryRun(t, rel.cfg, relabel(t, prog, layout, g, rel.cfg.Grid, rel.tile))
					key := name + "/" + rel.name
					if (got != want) != broken[key] {
						t.Errorf("%s: %+v against %+v; listed as broken: %v", key, got, want, broken[key])
					}
				}
			}
		}
	}
}

// symmetryView is the part of a Result the relations compare.
type symmetryView struct {
	Exec, MeanLatency, MaxLatency time.Duration
	Events, PairHops, Turns       uint64
}

// symmetryRun runs prog under cfg and returns its compared fields.
func symmetryRun(t *testing.T, cfg Config, prog workload.Program) symmetryView {
	t.Helper()
	res, err := run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return symmetryView{
		Exec:        res.Exec,
		MeanLatency: res.MeanChannelLatency,
		MaxLatency:  res.MaxChannelLatency,
		Events:      res.Events,
		PairHops:    res.PairHops,
		Turns:       res.Turns,
	}
}

// relabel returns prog with every qubit renamed so that its home under
// layout on image is tile(its home on g).
func relabel(t *testing.T, prog workload.Program, layout Layout, g, image mesh.Grid, tile func(mesh.Coord) mesh.Coord) workload.Program {
	t.Helper()
	from, to := placement(t, layout, g, prog.Qubits), placement(t, layout, image, prog.Qubits)
	at := make(map[mesh.Coord]int, prog.Qubits)
	for q := 0; q < prog.Qubits; q++ {
		at[to.Home(q)] = q
	}
	label := make([]int, prog.Qubits)
	for q := range label {
		p, ok := at[tile(from.Home(q))]
		if !ok {
			t.Fatalf("no qubit of %dx%d is at the image of qubit %d's home", image.Width, image.Height, q)
		}
		label[q] = p
	}
	out := workload.Program{Name: prog.Name, Qubits: prog.Qubits, Ops: make([]workload.Op, len(prog.Ops))}
	for i, op := range prog.Ops {
		out.Ops[i] = workload.Op{A: label[op.A], B: label[op.B]}
	}
	return out
}

// placement returns the homes the simulator gives qubits under layout.
func placement(t *testing.T, layout Layout, g mesh.Grid, qubits int) *mesh.Placement {
	t.Helper()
	place := mesh.RowMajorPlacement
	if layout == MobileQubit {
		place = mesh.SnakePlacement
	}
	p, err := place(g, qubits)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

package netsim

import (
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/workload"
)

// TestExecAtLeastContentionFreeBound checks whole runs against a bound
// that shares none of the op flow's code: recurrence's one channel on
// an idle mesh, folded over the program's op DAG (see contentionFree).
// Contention only makes a channel wait longer, so no run may finish
// before the bound.  The runs are the default Figure 16 space, an 8×8
// QFT-64 under both layouts at the t=g=p=1024 baseline and at
// t=g=1p/2p/4p/8p of a 48-unit area; the 21/21/5 points are the two
// healthy xy runs TestContendedRunsGolden pins.  At the baseline no
// batch ever waits for a unit another channel holds, so there the bound
// must equal Exec to the nanosecond, which keeps it from passing by
// being loose.
func TestExecAtLeastContentionFreeBound(t *testing.T) {
	g := grid(t, 8, 8)
	prog := workload.QFT(g.Tiles())
	allocs, err := SweepAllocations(48, []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	allocs = append([]Allocation{{T: 1024, G: 1024, P: 1024}}, allocs...)
	for _, layout := range []Layout{HomeBase, MobileQubit} {
		for i, a := range allocs {
			cfg := DefaultConfig(g, layout, a.T, a.G, a.P)
			res, err := run(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			bound := contentionFree(t, cfg, prog)
			if res.Exec < bound {
				t.Errorf("%v %d/%d/%d: Exec %v below the contention-free bound %v",
					layout, a.T, a.G, a.P, res.Exec, bound)
			}
			if i == 0 && res.Exec != bound {
				t.Errorf("%v baseline: Exec %v, contention-free bound %v, want equal",
					layout, res.Exec, bound)
			}
			t.Logf("%v %d/%d/%d: Exec %v, bound %v (%.2fx)", layout, a.T, a.G, a.P,
				res.Exec, bound, float64(res.Exec)/float64(bound))
		}
	}
}

// contentionFree returns the Exec a run of prog would take if no two
// channels ever contended: every channel takes recurrence's idle-mesh
// latency over its xy path, and an op starts when the last ops on both
// its qubits have ended.  Under HomeBase an op pays the channel from
// B's home to A's home, the gate and the channel back.  Under
// MobileQubit A travels to B's tile (nothing when they share one) and
// stays there for the gate, and a qubit whose last op leaves it away
// from home then travels home.  The positions follow program order,
// since the simulator runs the ops on each qubit in that order.
func contentionFree(t *testing.T, cfg Config, prog workload.Program) time.Duration {
	t.Helper()
	if cfg.Route != nil {
		t.Fatalf("contentionFree models xy paths, not %s", cfg.Route.Name())
	}
	place := mesh.RowMajorPlacement
	if cfg.Layout == MobileQubit {
		place = mesh.SnakePlacement
	}
	homes, err := place(cfg.Grid, prog.Qubits)
	if err != nil {
		t.Fatal(err)
	}
	latencies := make(map[[2]int]time.Duration)
	latency := func(a, b mesh.Coord) time.Duration {
		dx, dy := abs(b.X-a.X), abs(b.Y-a.Y)
		if dx+dy == 0 {
			return 0
		}
		l, ok := latencies[[2]int{dx, dy}]
		if !ok {
			// An xy path runs dx hops along X, then dy along Y,
			// turning at the first Y hop.
			turn := make([]bool, dx+dy)
			if dx > 0 && dy > 0 {
				turn[dx] = true
			}
			l = recurrence(cfg, turn)
			latencies[[2]int{dx, dy}] = l
		}
		return l
	}
	gate := cfg.Params.Times.TwoQubitGate
	pos := make([]mesh.Coord, prog.Qubits)
	last := make([]int, prog.Qubits)
	for q := range pos {
		pos[q] = homes.Home(q)
	}
	for k, op := range prog.Ops {
		last[op.A], last[op.B] = k, k
	}
	free := make([]time.Duration, prog.Qubits) // when each qubit's last op ended
	var exec time.Duration
	for k, op := range prog.Ops {
		end := max(free[op.A], free[op.B])
		switch cfg.Layout {
		case HomeBase:
			a, b := homes.Home(op.A), homes.Home(op.B)
			end += latency(b, a) + gate + latency(a, b)
		case MobileQubit:
			end += latency(pos[op.A], pos[op.B]) + gate
			pos[op.A] = pos[op.B]
		}
		free[op.A], free[op.B] = end, end
		exec = max(exec, end)
		if cfg.Layout != MobileQubit {
			continue
		}
		for _, q := range [2]int{op.A, op.B} {
			if last[q] == k {
				exec = max(exec, end+latency(pos[q], homes.Home(q)))
			}
		}
	}
	return exec
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

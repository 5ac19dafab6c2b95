package netsim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestTimeScalingIsExact: every latency in the model derives from the
// device time table (phys.Times), so multiplying each of its fields by
// k must multiply Exec by exactly k and leave the event count
// unchanged.  A latency that does not come from the table — a
// hard-coded delay, a rounding step that depends on absolute time —
// breaks the equality.
func TestTimeScalingIsExact(t *testing.T) {
	resources := []struct{ t, g, p int }{
		{16, 16, 16}, {21, 21, 5}, {24, 24, 16}, {1024, 1024, 1024},
	}
	for _, n := range []int{3, 4} {
		g := grid(t, n, n)
		prog := workload.QFT(g.Tiles())
		for _, layout := range []Layout{HomeBase, MobileQubit} {
			for _, r := range resources {
				name := fmt.Sprintf("%dx%d/%v/t%d-g%d-p%d", n, n, layout, r.t, r.g, r.p)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig(g, layout, r.t, r.g, r.p)
					base, err := run(cfg, prog)
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range []time.Duration{2, 3} {
						scaled := cfg
						tm := &scaled.Params.Times
						tm.OneQubitGate *= k
						tm.TwoQubitGate *= k
						tm.MoveCell *= k
						tm.Measure *= k
						tm.ClassicalBitPerCell *= k
						res, err := run(scaled, prog)
						if err != nil {
							t.Fatal(err)
						}
						if res.Exec != k*base.Exec {
							t.Errorf("times x%d: Exec %v, want exactly %v (x%d of %v)", k, res.Exec, k*base.Exec, k, base.Exec)
						}
						if res.Events != base.Events {
							t.Errorf("times x%d: %d events, want %d", k, res.Events, base.Events)
						}
					}
				})
			}
		}
	}
}

// TestMoreResourcesNeverSlower: one more teleporter, generator or
// purifier per node, the other two counts held at 16, must never make
// a run slower.  The sweeps cover each count over 1–40 on 4×4 QFT-16
// in both layouts, and the purifier count on 6×6 HomeBase QFT-36.
// Exec never rises, except at the steps listed in slower, which must
// still rise so the list stays honest.  The one listed step is 6×6
// HomeBase at p 4 → 5, 2.8159592s → 2.916523s (+3.6%).
func TestMoreResourcesNeverSlower(t *testing.T) {
	slower := map[string]bool{"6x6/HomeBase/p=4": true}
	sweeps := []struct {
		n      int
		layout Layout
		count  int // index into {t, g, p}
	}{
		{4, HomeBase, 0}, {4, HomeBase, 1}, {4, HomeBase, 2},
		{4, MobileQubit, 0}, {4, MobileQubit, 1}, {4, MobileQubit, 2},
		{6, HomeBase, 2},
	}
	for _, sw := range sweeps {
		name := fmt.Sprintf("%dx%d/%v/%c", sw.n, sw.n, sw.layout, "tgp"[sw.count])
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g := grid(t, sw.n, sw.n)
			prog := workload.QFT(g.Tiles())
			var prev time.Duration
			for c := 1; c <= 40; c++ {
				units := [3]int{16, 16, 16}
				units[sw.count] = c
				res, err := run(DefaultConfig(g, sw.layout, units[0], units[1], units[2]), prog)
				if err != nil {
					t.Fatal(err)
				}
				if step := fmt.Sprintf("%s=%d", name, c-1); c > 1 && (res.Exec > prev) != slower[step] {
					t.Errorf("%s → %d: Exec %v → %v; listed as slower: %v", step, c, prev, res.Exec, slower[step])
				}
				prev = res.Exec
			}
		})
	}
}

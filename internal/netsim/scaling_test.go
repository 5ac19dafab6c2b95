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
					base, err := Run(cfg, prog)
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
						res, err := Run(scaled, prog)
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

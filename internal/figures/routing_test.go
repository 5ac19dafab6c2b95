package figures

import (
	"strings"
	"testing"

	"repro/qnet/route"
	"repro/qnet/simulate"
)

// TestRoutingTableSmall runs the routing comparison on a small grid
// and checks its structure: one row per layout × policy, the baseline
// marked, turn counts ordered as the policies' geometry dictates, and
// the deterministic-ensemble significance semantics.
func TestRoutingTableSmall(t *testing.T) {
	cfg := DefaultRoutingConfig(4)
	cfg.Seeds = simulate.SeedRange(2)
	data, err := Routing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 2 * len(route.Policies())
	if len(data.Rows) != wantRows {
		t.Fatalf("%d rows, want %d", len(data.Rows), wantRows)
	}
	if data.Baseline != "xy" {
		t.Errorf("baseline %q, want xy", data.Baseline)
	}
	byPolicy := make(map[string]RoutingRow, len(data.Rows))
	for _, r := range data.Rows {
		if r.Layout != simulate.HomeBase {
			continue
		}
		byPolicy[r.Policy] = r
	}
	// ZigZag staircases wherever legal, so it must pay at least as many
	// turns as dimension order on the same traffic.
	if byPolicy["zigzag"].Ensemble.Turns.Mean < byPolicy["xy"].Ensemble.Turns.Mean {
		t.Errorf("zigzag mean turns %v below xy %v",
			byPolicy["zigzag"].Ensemble.Turns.Mean, byPolicy["xy"].Ensemble.Turns.Mean)
	}
	// All policies are minimal, so pair-hop totals agree across rows.
	for name, r := range byPolicy {
		if r.Ensemble.PairHops.Mean != byPolicy["xy"].Ensemble.PairHops.Mean {
			t.Errorf("%s mean pair-hops %v differ from xy %v (non-minimal policy?)",
				name, r.Ensemble.PairHops.Mean, byPolicy["xy"].Ensemble.PairHops.Mean)
		}
	}
	// Deterministic ensembles (failure rate 0): a policy that changes
	// the execution time at all is an exact, significant difference.
	for name, r := range byPolicy {
		if name == "xy" {
			continue
		}
		if r.Ensemble.Exec.Mean != byPolicy["xy"].Ensemble.Exec.Mean && !r.VsBaseline.Significant {
			t.Errorf("%s changed exec deterministically but was not flagged significant: %v",
				name, r.VsBaseline)
		}
	}
	var b strings.Builder
	if err := data.Table().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	rendered := b.String()
	for _, want := range []string{"xy", "yx", "zigzag", "least-congested", "(baseline)", "HomeBase", "MobileQubit"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("routing table missing %q:\n%s", want, rendered)
		}
	}
}

// TestRoutingRejectsTinyGrid mirrors the other figure constructors.
func TestRoutingRejectsTinyGrid(t *testing.T) {
	if _, err := Routing(RoutingConfig{GridSize: 1}); err == nil {
		t.Error("1x1 grid accepted")
	}
}

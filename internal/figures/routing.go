package figures

import (
	"context"
	"fmt"
	"time"

	"repro/internal/mesh"
	"repro/internal/report"
	"repro/internal/workload"

	"repro/qnet/route"
	"repro/qnet/simulate"
	"repro/qnet/stats"
)

// RoutingConfig parameterizes the routing-policy comparison: the
// Figure 16 layouts crossed with every routing policy at one resource
// allocation, each point measured as a seed ensemble and tested for a
// significant difference against the dimension-order baseline.
type RoutingConfig struct {
	// GridSize is the mesh edge length.
	GridSize int
	// Teleporters, Generators and Purifiers fix the per-node
	// allocation.
	Teleporters, Generators, Purifiers int
	// Routings are the policies compared; the default is every shipped
	// policy (xy, yx, zigzag, least-congested).  The first policy is
	// the comparison baseline.
	Routings []route.Policy
	// Seeds are the ensemble seeds; the default is {1..5}.
	Seeds []int64
	// FailureRate injects stochastic purification failure so the
	// ensembles develop a spread; zero keeps runs deterministic (and
	// makes the significance test exact, as documented on
	// stats.Comparison.P).
	FailureRate float64
	// Cache, when non-nil, serves repeated points without
	// re-simulating.
	Cache *simulate.Cache
	// Workers bounds the sweep's worker goroutines (0 = GOMAXPROCS).
	Workers int
}

// DefaultRoutingConfig returns the quick comparison configuration:
// t=g=16, p=8, all four policies, five seeds.
func DefaultRoutingConfig(gridSize int) RoutingConfig {
	return RoutingConfig{
		GridSize:    gridSize,
		Teleporters: 16,
		Generators:  16,
		Purifiers:   8,
		Routings:    route.Policies(),
		Seeds:       simulate.SeedRange(5),
	}
}

// RoutingRow is one layout × policy measurement, with its comparison
// against the same layout's baseline-policy ensemble.
type RoutingRow struct {
	// Layout is the floorplan the row was measured under.
	Layout simulate.Layout
	// Policy is the canonical routing-policy name.
	Policy string
	// Ensemble aggregates the seed ensemble's metrics.
	Ensemble stats.Ensemble
	// VsBaseline compares this row's execution times against the
	// baseline policy under the same layout (zero-valued for the
	// baseline row itself).
	VsBaseline stats.Comparison
}

// RoutingData is the full comparison: rows grouped by layout in policy
// order, plus the sweep tally (for cache-hit reporting).
type RoutingData struct {
	// Config echoes the configuration the data was generated from.
	Config RoutingConfig
	// Qubits is the QFT size (one logical qubit per tile).
	Qubits int
	// Baseline is the canonical name of the comparison baseline
	// policy.
	Baseline string
	// Rows are the measurements, grouped by layout in policy order.
	Rows []RoutingRow
	// Sweep tallies the underlying runs, including cache hits.
	Sweep simulate.Summary
}

// Routing runs the routing-policy comparison: both Figure 16 layouts
// crossed with every configured policy (times every seed) run
// concurrently through the sweep engine, and each policy's execution
// ensemble is Welch-tested against the baseline policy's.
func Routing(cfg RoutingConfig) (*RoutingData, error) {
	return RoutingContext(context.Background(), cfg)
}

// RoutingContext is Routing with cancellation.
func RoutingContext(ctx context.Context, cfg RoutingConfig) (*RoutingData, error) {
	if cfg.GridSize < 2 {
		return nil, fmt.Errorf("figures: grid size %d too small", cfg.GridSize)
	}
	grid, err := mesh.NewGrid(cfg.GridSize, cfg.GridSize)
	if err != nil {
		return nil, err
	}
	// Back-fill the defaults into cfg so RoutingData.Config echoes the
	// configuration actually run (Table reads the seed count from it).
	if len(cfg.Routings) == 0 {
		cfg.Routings = route.Policies()
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = simulate.SeedRange(5)
	}
	routings := cfg.Routings
	seeds := cfg.Seeds
	space := simulate.Space{
		Grids:   []mesh.Grid{grid},
		Layouts: []simulate.Layout{simulate.HomeBase, simulate.MobileQubit},
		Resources: []simulate.Resources{
			{Teleporters: cfg.Teleporters, Generators: cfg.Generators, Purifiers: cfg.Purifiers},
		},
		Programs: []workload.Program{workload.QFT(grid.Tiles())},
		Routings: routings,
		Seeds:    seeds,
		Options:  []simulate.Option{simulate.WithFailureRate(cfg.FailureRate)},
	}
	cache := cfg.Cache
	if cache == nil {
		cache = simulate.NewCache(0)
	}
	points, err := simulate.Sweep(ctx, space,
		simulate.WithCache(cache), simulate.WithWorkers(cfg.Workers))
	if err != nil {
		return nil, err
	}
	for _, pt := range points {
		if pt.Err != nil {
			return nil, fmt.Errorf("figures: %v/%s seed %d: %w",
				pt.Point.Layout, pt.Point.RoutingName(), pt.Point.Seed, pt.Err)
		}
	}

	// Decode by point metadata (layout × policy name), not position.
	type runKey struct {
		layout simulate.Layout
		policy string
	}
	groups := make(map[runKey]stats.PointEnsemble, 2*len(routings))
	for _, g := range stats.Group(points) {
		groups[runKey{g.Point.Layout, g.Point.RoutingName()}] = g
	}

	data := &RoutingData{
		Config:   cfg,
		Qubits:   grid.Tiles(),
		Baseline: route.NameOf(routings[0]),
		Sweep:    simulate.Summarize(points),
	}
	for _, layout := range space.Layouts {
		base, ok := groups[runKey{layout, data.Baseline}]
		if !ok {
			return nil, fmt.Errorf("figures: %v baseline policy %q missing from sweep results", layout, data.Baseline)
		}
		for _, p := range routings {
			name := route.NameOf(p)
			g, ok := groups[runKey{layout, name}]
			if !ok {
				return nil, fmt.Errorf("figures: %v/%s missing from sweep results", layout, name)
			}
			row := RoutingRow{Layout: layout, Policy: name, Ensemble: g.Ensemble}
			if name != data.Baseline {
				row.VsBaseline = stats.Compare(base.Ensemble.Exec, g.Ensemble.Exec)
			}
			data.Rows = append(data.Rows, row)
		}
	}
	return data, nil
}

// Table renders the comparison, one row per layout × policy with the
// ensemble mean ± 95% CI, the mean turn count, and the Welch p-value
// and Cohen's d against the baseline policy ("*" marks p < 0.05).
func (d *RoutingData) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Routing policies: QFT-%d, t=%d g=%d p=%d, %d seeds (baseline %s, 95%% CI)",
			d.Qubits, d.Config.Teleporters, d.Config.Generators, d.Config.Purifiers,
			len(d.Config.Seeds), d.Baseline),
		"Layout", "Policy", "MeanExec", "ExecCI95", "MeanTurns", "MeanPairHops", "VsBaseline")
	for _, r := range d.Rows {
		vs := "(baseline)"
		if r.Policy != d.Baseline {
			vs = r.VsBaseline.String()
		}
		t.AddRow(r.Layout.String(), r.Policy,
			r.Ensemble.MeanExec().String(),
			fmt.Sprintf("± %s", time.Duration(r.Ensemble.Exec.CI(0.95).Half()*float64(time.Second))),
			r.Ensemble.Turns.Mean,
			r.Ensemble.PairHops.Mean,
			vs)
	}
	return t
}

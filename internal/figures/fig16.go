package figures

import (
	"context"
	"fmt"
	"time"

	"repro/internal/mesh"
	"repro/internal/report"
	"repro/internal/workload"

	"repro/qnet/simulate"
	"repro/qnet/stats"
)

// Fig16Config parameterizes the Figure 16 reproduction: the benchmark
// execution time of QFT under both layouts as a function of network
// resource allocation, normalized to t = g = p = 1024, with every point
// measured as an ensemble over RNG seeds.
type Fig16Config struct {
	// GridSize is the mesh edge length; the paper uses 16 (QFT-256).
	// The default harness uses 8 to keep run time short; pass 16 for the
	// full-scale reproduction.
	GridSize int
	// Area is the per-tile resource budget t + g + p; 48 by default.
	Area int
	// Ratios are the t/p points of the sweep.
	Ratios []int
	// Seeds are the RNG seeds of the per-point ensemble; the default is
	// {1..5}.  With FailureRate zero the runs are deterministic, the
	// cache collapses the ensemble to one simulation per point, and the
	// confidence intervals are exactly zero-width.
	Seeds []int64
	// FailureRate injects stochastic purification failure
	// (simulate.WithFailureRate) so the seed ensemble develops a real
	// spread; zero keeps the paper's deterministic setup.
	FailureRate float64
	// Cache, when non-nil, serves repeated points without re-simulating
	// them (a disk-backed cache makes repeated figure generation
	// incremental across processes).  When nil an in-memory cache still
	// deduplicates identical runs within this one figure.
	Cache *simulate.Cache
}

// DefaultFig16Config returns the quick (8×8, QFT-64) configuration with
// a five-seed ensemble.
func DefaultFig16Config() Fig16Config {
	return Fig16Config{
		GridSize: 8,
		Area:     48,
		Ratios:   []int{1, 2, 4, 8},
		Seeds:    simulate.SeedRange(5),
	}
}

// seeds returns the configured seed ensemble, defaulting to {1..5}.
func (cfg Fig16Config) seeds() []int64 {
	if len(cfg.Seeds) > 0 {
		return cfg.Seeds
	}
	return simulate.SeedRange(5)
}

// Fig16Row is one measurement of the sweep: an allocation under a
// layout, aggregated over the seed ensemble.
type Fig16Row struct {
	// Layout is the floorplan the row was measured under.
	Layout simulate.Layout
	// Allocation is the swept resource split.
	Allocation simulate.Allocation
	// Exec is the mean execution time over the ensemble.
	Exec time.Duration
	// ExecCI is the 95% normal confidence interval of Exec, in seconds.
	ExecCI stats.Interval
	// Normalized is the mean of the per-seed execution times, each
	// normalized by the same seed's unlimited-resource baseline.
	Normalized float64
	// NormalizedCI is the 95% normal confidence interval of Normalized.
	NormalizedCI stats.Interval
	// Ensemble carries the full metric aggregate over the seeds.
	Ensemble stats.Ensemble
	// Result is the first seed's raw result, kept for detail columns.
	Result simulate.Result
}

// Fig16Data holds the full sweep, including the normalization runs.
type Fig16Data struct {
	// Config echoes the configuration the data was generated from.
	Config Fig16Config
	// Qubits is the QFT size (one logical qubit per tile).
	Qubits int
	// Seeds is the seed ensemble every point was measured over.
	Seeds []int64
	// Baselines aggregates the unlimited-resource (t=g=p=1024) runs per
	// layout.
	Baselines map[simulate.Layout]stats.Ensemble
	// Rows are the swept allocations, grouped by layout in sweep order.
	Rows []Fig16Row
	// Sweep tallies the underlying runs, including cache hits.
	Sweep simulate.Summary
}

// Fig16 runs the resource-allocation sweep of Figure 16: both layouts,
// the baselines and every allocation, times every seed, through the
// simulate.Sweep engine and the configured result cache.  Without
// failure injection the seeds of one configuration share a cache key,
// so each configuration simulates once; the sweep runs those distinct
// simulations side by side on its workers and serves every other seed
// from the cache.
func Fig16(cfg Fig16Config) (*Fig16Data, error) {
	return Fig16Context(context.Background(), cfg)
}

// Fig16Context is Fig16 with cancellation.
func Fig16Context(ctx context.Context, cfg Fig16Config) (*Fig16Data, error) {
	if cfg.GridSize < 2 {
		return nil, fmt.Errorf("figures: grid size %d too small", cfg.GridSize)
	}
	grid, err := mesh.NewGrid(cfg.GridSize, cfg.GridSize)
	if err != nil {
		return nil, err
	}
	qubits := grid.Tiles()
	allocs, err := simulate.Allocations(cfg.Area, cfg.Ratios)
	if err != nil {
		return nil, err
	}

	// Point 0 of the resource dimension is the unlimited-resource
	// baseline; the rest are the swept allocations, in ratio order.
	resources := make([]simulate.Resources, 0, len(allocs)+1)
	resources = append(resources, simulate.Resources{Teleporters: 1024, Generators: 1024, Purifiers: 1024})
	for _, a := range allocs {
		resources = append(resources, simulate.AllocationResources(a))
	}
	space := simulate.Space{
		Grids:     []mesh.Grid{grid},
		Layouts:   []simulate.Layout{simulate.HomeBase, simulate.MobileQubit},
		Resources: resources,
		Programs:  []workload.Program{workload.QFT(qubits)},
		Seeds:     cfg.seeds(),
		Options:   []simulate.Option{simulate.WithFailureRate(cfg.FailureRate)},
	}
	cache := cfg.Cache
	if cache == nil {
		cache = simulate.NewCache(0)
	}
	points, err := simulate.Sweep(ctx, space, simulate.WithCache(cache))
	if err != nil {
		return nil, err
	}
	for _, pt := range points {
		if pt.Err != nil {
			return nil, fmt.Errorf("figures: %v %+v seed %d: %w",
				pt.Point.Layout, pt.Point.Resources, pt.Point.Seed, pt.Err)
		}
	}

	// Decode by point metadata, not position, so the mapping survives
	// any change to the space's dimensions or expansion order.  Group
	// folds the seed dimension into per-configuration ensembles.
	type runKey struct {
		layout simulate.Layout
		res    simulate.Resources
	}
	groups := make(map[runKey]stats.PointEnsemble, 2*len(resources))
	for _, g := range stats.Group(points) {
		groups[runKey{g.Point.Layout, g.Point.Resources}] = g
	}

	data := &Fig16Data{
		Config:    cfg,
		Qubits:    qubits,
		Seeds:     space.Seeds,
		Baselines: make(map[simulate.Layout]stats.Ensemble, 2),
		Sweep:     simulate.Summarize(points),
	}
	for _, layout := range space.Layouts {
		base, ok := groups[runKey{layout, resources[0]}]
		if !ok {
			return nil, fmt.Errorf("figures: %v baseline missing from sweep results", layout)
		}
		data.Baselines[layout] = base.Ensemble
		for _, a := range allocs {
			g, ok := groups[runKey{layout, simulate.AllocationResources(a)}]
			if !ok {
				return nil, fmt.Errorf("figures: %v %v missing from sweep results", layout, a)
			}
			// Normalize per seed — run i of the allocation against run i
			// of the baseline — then aggregate, so baseline noise widens
			// the interval instead of biasing the mean.
			normalized := make([]float64, len(g.Results))
			for i, r := range g.Results {
				normalized[i] = float64(r.Exec) / float64(base.Results[i].Exec)
			}
			normSummary := stats.Describe(normalized)
			data.Rows = append(data.Rows, Fig16Row{
				Layout:       layout,
				Allocation:   a,
				Exec:         g.Ensemble.MeanExec(),
				ExecCI:       g.Ensemble.Exec.CI(0.95),
				Normalized:   normSummary.Mean,
				NormalizedCI: normSummary.CI(0.95),
				Ensemble:     g.Ensemble,
				Result:       g.Results[0],
			})
		}
	}
	return data, nil
}

// Table renders the sweep as a table, one row per allocation with the
// ensemble mean ± 95% confidence half-width.
func (d *Fig16Data) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Figure 16: QFT-%d execution vs resource allocation (normalized to t=g=p=1024, %d seeds, 95%% CI)",
			d.Qubits, len(d.Seeds)),
		"Layout", "Allocation", "MeanExec", "Normalized", "CI95", "TeleporterUtil", "PurifierUtil")
	for _, layout := range []simulate.Layout{simulate.HomeBase, simulate.MobileQubit} {
		base := d.Baselines[layout]
		t.AddRow(layout.String(), "t=g=p=1024 (baseline)", base.MeanExec().String(),
			1.0, "± 0.000",
			base.TeleporterUtil.Mean, base.PurifierUtil.Mean)
		for _, r := range d.Rows {
			if r.Layout != layout {
				continue
			}
			t.AddRow(layout.String(), r.Allocation.String(), r.Exec.String(),
				r.Normalized, fmt.Sprintf("± %.3f", r.NormalizedCI.Half()),
				r.Ensemble.TeleporterUtil.Mean, r.Ensemble.PurifierUtil.Mean)
		}
	}
	return t
}

// Plot renders mean normalized execution versus the t/p ratio.
func (d *Fig16Data) Plot() *report.Plot {
	plot := report.NewPlot(
		fmt.Sprintf("Figure 16: QFT-%d normalized execution vs t/p ratio (mean over %d seeds)",
			d.Qubits, len(d.Seeds)),
		"t = g = ratio × p", "execution / unlimited-resource execution")
	plot.LogY = true
	for _, layout := range []simulate.Layout{simulate.HomeBase, simulate.MobileQubit} {
		s := report.Series{Name: layout.String()}
		for _, r := range d.Rows {
			if r.Layout != layout {
				continue
			}
			s.X = append(s.X, float64(r.Allocation.Ratio))
			s.Y = append(s.Y, r.Normalized)
		}
		plot.Add(s)
	}
	return plot
}

// MEMMConfig parameterizes the Shor's-algorithm kernel comparison (the
// paper's benchmark suite of §5.2): three kernels under both layouts at
// one allocation, measured as seed ensembles.
type MEMMConfig struct {
	// GridSize is the mesh edge length.
	GridSize int
	// Teleporters, Generators and Purifiers fix the per-node allocation.
	Teleporters, Generators, Purifiers int
	// Seeds are the ensemble seeds; the default is {1..5}.
	Seeds []int64
	// FailureRate injects stochastic purification failure.
	FailureRate float64
	// Cache, when non-nil, serves repeated points without re-simulating.
	Cache *simulate.Cache
}

// DefaultMEMMConfig returns the kernel-table configuration used by
// cmd/figures: t=g=16, p=8, five seeds.
func DefaultMEMMConfig(gridSize int) MEMMConfig {
	return MEMMConfig{
		GridSize:    gridSize,
		Teleporters: 16,
		Generators:  16,
		Purifiers:   8,
		Seeds:       simulate.SeedRange(5),
	}
}

// MEMMData is the kernel comparison: the rendered table plus the sweep
// tally (for cache-hit reporting).
type MEMMData struct {
	// Table is the rendered kernel comparison.
	Table *report.Table
	// Sweep tallies the underlying runs, including cache hits.
	Sweep simulate.Summary
}

// MEMM compares the three Shor's-algorithm kernels under one
// allocation; all runs (kernels × layouts × seeds) execute concurrently
// through the sweep engine, deduplicated through the configured cache.
func MEMM(cfg MEMMConfig) (*MEMMData, error) {
	grid, err := mesh.NewGrid(cfg.GridSize, cfg.GridSize)
	if err != nil {
		return nil, err
	}
	seeds := cfg.Seeds
	if len(seeds) == 0 {
		seeds = simulate.SeedRange(5)
	}
	half := grid.Tiles() / 2
	space := simulate.Space{
		Grids:   []mesh.Grid{grid},
		Layouts: []simulate.Layout{simulate.HomeBase, simulate.MobileQubit},
		Resources: []simulate.Resources{
			{Teleporters: cfg.Teleporters, Generators: cfg.Generators, Purifiers: cfg.Purifiers},
		},
		Programs: []workload.Program{
			workload.QFT(grid.Tiles()),
			workload.ModMult(half),
			workload.ModExp(half/2, 1),
		},
		Seeds:   seeds,
		Options: []simulate.Option{simulate.WithFailureRate(cfg.FailureRate)},
	}
	cache := cfg.Cache
	if cache == nil {
		cache = simulate.NewCache(0)
	}
	points, err := simulate.Sweep(context.Background(), space, simulate.WithCache(cache))
	if err != nil {
		return nil, err
	}
	for _, pt := range points {
		if pt.Err != nil {
			return nil, pt.Err
		}
	}
	// Decode by point metadata (kernel name × layout), not position.
	type runKey struct {
		kernel string
		layout simulate.Layout
	}
	groups := make(map[runKey]stats.PointEnsemble, 6)
	for _, g := range stats.Group(points) {
		groups[runKey{g.Point.Program.Name, g.Point.Layout}] = g
	}
	tab := report.NewTable(
		fmt.Sprintf("Shor kernels on a %dx%d mesh (t=%d g=%d p=%d, %d seeds, 95%% CI)",
			cfg.GridSize, cfg.GridSize, cfg.Teleporters, cfg.Generators, cfg.Purifiers, len(seeds)),
		"Kernel", "Layout", "Ops", "MeanPairsDelivered", "MeanPairHops", "MeanExec", "ExecCI95", "MeanChannelLatency")
	// The paper's table groups by kernel first.  Ops is a property of
	// the instruction stream, so it is seed-invariant; the traffic
	// counts vary under failure injection and are reported as ensemble
	// means like the latencies.
	for _, prog := range space.Programs {
		for _, layout := range space.Layouts {
			g, ok := groups[runKey{prog.Name, layout}]
			if !ok {
				return nil, fmt.Errorf("figures: %s/%v missing from sweep results", prog.Name, layout)
			}
			e := g.Ensemble
			tab.AddRow(prog.Name, layout.String(), g.Results[0].Ops,
				e.PairsDelivered.Mean, e.PairHops.Mean,
				e.MeanExec().String(),
				fmt.Sprintf("± %s", time.Duration(e.Exec.CI(0.95).Half()*float64(time.Second))),
				time.Duration(e.ChannelLatency.Mean*float64(time.Second)).String())
		}
	}
	return &MEMMData{Table: tab, Sweep: simulate.Summarize(points)}, nil
}

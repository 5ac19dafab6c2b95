package figures

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/mesh"
	"repro/internal/report"
	"repro/internal/workload"

	"repro/qnet/route"
	"repro/qnet/simulate"
	"repro/qnet/trace"
)

// CongestionConfig parameterizes the congestion-heatmap figure: one
// traced QFT run whose per-link utilization is rendered over simulated
// time.
type CongestionConfig struct {
	// GridSize is the mesh edge length.
	GridSize int
	// Teleporters, Generators and Purifiers fix the per-node
	// allocation.
	Teleporters, Generators, Purifiers int
	// Layout is the floorplan of the traced run.
	Layout simulate.Layout
	// Routing is the routing policy (nil = the xy default).
	Routing route.Policy
	// Columns bounds the heatmap's time-bucket count: the trace keeps
	// at most Columns samples of the whole run, doubling its interval
	// from the trace default each time it fills, so a run longer than
	// Columns of those intervals gets at least Columns/2.  The default
	// is 64.
	Columns int
	// MaxLinks bounds the heatmap to the hottest links by mean
	// utilization (0 = every link), keeping large meshes readable.
	MaxLinks int
	// FailureRate injects stochastic purification failure, populating
	// the trace's resend log.
	FailureRate float64
	// Seed drives the failure-injection RNG.
	Seed int64
}

// DefaultCongestionConfig returns the quick congestion figure
// configuration: a MobileQubit QFT at t=g=16, p=8 with 64 time
// buckets, capped at the 24 hottest links.
func DefaultCongestionConfig(gridSize int) CongestionConfig {
	return CongestionConfig{
		GridSize:    gridSize,
		Teleporters: 16,
		Generators:  16,
		Purifiers:   8,
		Layout:      simulate.MobileQubit,
		Columns:     64,
		MaxLinks:    24,
	}
}

// CongestionData is one traced run's congestion record: the exported
// time series plus the run metadata the renderers need.
type CongestionData struct {
	// Config echoes the configuration the data was generated from (with
	// defaults back-filled).
	Config CongestionConfig
	// Qubits is the QFT size (one logical qubit per tile).
	Qubits int
	// Exec is the traced run's execution time.
	Exec time.Duration
	// Policy is the canonical routing-policy name.
	Policy string
	// Trace is the run's exported time series.
	Trace *trace.Export
	// Links are the mesh links in canonical (trace column) order.
	Links []mesh.Link
}

// Congestion runs the congestion-trace figure.
func Congestion(cfg CongestionConfig) (*CongestionData, error) {
	return CongestionContext(context.Background(), cfg)
}

// CongestionContext is Congestion with cancellation.  It simulates once,
// traced: the trace's series halves whenever it fills, so it covers
// the whole run in at most Columns samples without knowing the
// execution time up front.
func CongestionContext(ctx context.Context, cfg CongestionConfig) (*CongestionData, error) {
	if cfg.GridSize < 2 {
		return nil, fmt.Errorf("figures: grid size %d too small", cfg.GridSize)
	}
	if cfg.Columns == 0 {
		cfg.Columns = 64
	}
	if cfg.Columns < 2 {
		return nil, fmt.Errorf("figures: congestion needs >= 2 columns, got %d", cfg.Columns)
	}
	grid, err := mesh.NewGrid(cfg.GridSize, cfg.GridSize)
	if err != nil {
		return nil, err
	}
	tr := trace.New(trace.Config{Capacity: cfg.Columns})
	m, err := simulate.New(grid, cfg.Layout,
		simulate.WithResources(cfg.Teleporters, cfg.Generators, cfg.Purifiers),
		simulate.WithRouting(cfg.Routing),
		simulate.WithFailureRate(cfg.FailureRate),
		simulate.WithSeed(cfg.Seed),
		simulate.WithTrace(tr))
	if err != nil {
		return nil, err
	}
	res, err := m.Run(ctx, workload.QFT(grid.Tiles()))
	if err != nil {
		return nil, err
	}
	return &CongestionData{
		Config: cfg,
		Qubits: grid.Tiles(),
		Exec:   res.Exec,
		Policy: route.NameOf(cfg.Routing),
		Trace:  tr.Export(),
		Links:  grid.Links(),
	}, nil
}

// meanUtil returns the mean over time of one link's utilization column.
func (d *CongestionData) meanUtil(link int) float64 {
	if len(d.Trace.LinkUtil) == 0 {
		return 0
	}
	var sum float64
	for _, row := range d.Trace.LinkUtil {
		sum += row[link]
	}
	return sum / float64(len(d.Trace.LinkUtil))
}

// maxUtil returns the peak of one link's utilization column.
func (d *CongestionData) maxUtil(link int) float64 {
	var max float64
	for _, row := range d.Trace.LinkUtil {
		if row[link] > max {
			max = row[link]
		}
	}
	return max
}

// hotLinks returns the link indices ordered hottest-first by mean
// utilization, truncated to Config.MaxLinks when set.
func (d *CongestionData) hotLinks() []int {
	idx := make([]int, len(d.Links))
	means := make([]float64, len(d.Links))
	for i := range idx {
		idx[i] = i
		means[i] = d.meanUtil(i)
	}
	// Insertion sort by descending mean, index ascending on ties: the
	// link count is small and the order must be deterministic.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0; j-- {
			a, b := idx[j-1], idx[j]
			if means[a] > means[b] || (means[a] == means[b] && a < b) {
				break
			}
			idx[j-1], idx[j] = b, a
		}
	}
	if d.Config.MaxLinks > 0 && len(idx) > d.Config.MaxLinks {
		idx = idx[:d.Config.MaxLinks]
	}
	return idx
}

// Heatmap renders per-link utilization over simulated time as an ASCII
// grid: one row per link (hottest first), one column per sample, each
// cell shaded by report.Shade against full utilization.  Values follow
// the route.Loads contract and can exceed 1.0 under backlog; a
// saturated link reads '9', it does not blow the scale for the rest of
// the map.
func (d *CongestionData) Heatmap() string {
	var b strings.Builder
	fmt.Fprintf(&b, "link utilization over time: QFT-%d, %v, %s routing, %v per column\n",
		d.Qubits, d.Config.Layout, d.Policy, time.Duration(d.Trace.IntervalNS))
	hot := d.hotLinks()
	for _, li := range hot {
		l := d.Links[li]
		fmt.Fprintf(&b, "%-14s ", fmt.Sprintf("%v/%v", l.From, l.Dir))
		for _, row := range d.Trace.LinkUtil {
			b.WriteByte(report.Shade(row[li], 1))
		}
		b.WriteByte('\n')
	}
	if len(hot) < len(d.Links) {
		fmt.Fprintf(&b, "(%d of %d links shown, hottest by mean utilization)\n", len(hot), len(d.Links))
	}
	return b.String()
}

// Table renders the hottest links' summary: mean and peak utilization
// plus the trace's drop/resend totals in the title.
func (d *CongestionData) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Congestion: QFT-%d, %v, %s routing, %d samples (%d drops, %d resends)",
			d.Qubits, d.Config.Layout, d.Policy,
			len(d.Trace.Times), d.Trace.TotalDrops, d.Trace.TotalResends),
		"Link", "MeanUtil", "PeakUtil")
	for _, li := range d.hotLinks() {
		l := d.Links[li]
		t.AddRow(fmt.Sprintf("%v/%v", l.From, l.Dir),
			fmt.Sprintf("%.3f", d.meanUtil(li)),
			fmt.Sprintf("%.3f", d.maxUtil(li)))
	}
	return t
}

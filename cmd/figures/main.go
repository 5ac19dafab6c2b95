// Command figures regenerates every table and figure of the paper
// "Interconnection Networks for Scalable Quantum Computers" (ISCA 2006)
// from the models in this repository.
//
// Simulator-backed figures (16 and the kernel table) are measured as
// seed ensembles with 95% confidence intervals, and their runs are
// content-addressed: with -cache-dir, results persist on disk and a
// re-run that changed nothing (or one dimension) only simulates what
// is new.  Cache traffic is reported on stderr, so stdout stays
// byte-identical between a cold and a warm run.
//
// Usage:
//
//	figures -fig all                    # every table and figure, text output
//	figures -fig 8                      # Figure 8 (purification protocols)
//	figures -fig 16 -grid 16            # Figure 16 at the paper's full scale
//	figures -fig 16 -cache-dir .qnet    # incremental re-generation
//	figures -fig 16 -seeds 10 -failure 0.05  # stochastic ensemble, real error bars
//	figures -fig 10 -format csv         # machine-readable output
//
// Figures: table1, table2, claims, 8, 9, 10, 11, 12, 16, memm,
// routing, congestion, all.  The routing table crosses the Figure 16
// layouts with every routing policy (qnet/route) and Welch-tests each
// policy's execution ensemble against the dimension-order baseline.
// The congestion figure traces one run through qnet/trace and renders
// per-link utilization over simulated time as a heatmap.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/figures"
	"repro/internal/report"

	"repro/qnet"
	"repro/qnet/channel"
	"repro/qnet/simulate"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "which figure to regenerate: table1, table2, claims, 8, 9, 10, 11, 12, 16, memm, routing, congestion, all")
		format   = flag.String("format", "text", "output format: text or csv")
		grid     = flag.Int("grid", 8, "mesh edge length for figure 16 (paper: 16)")
		area     = flag.Int("area", 48, "per-tile resource budget t+g+p for figure 16")
		hops     = flag.Int("hops", 10, "path length in hops for figure 12")
		noPlots  = flag.Bool("no-plots", false, "suppress ASCII plots in text mode")
		cacheDir = flag.String("cache-dir", "", "directory for the on-disk result cache (empty: in-memory only)")
		seeds    = flag.Int("seeds", 5, "ensemble size (seeds per simulated point) for figures 16 and memm")
		failure  = flag.Float64("failure", 0, "purification failure-injection rate (0 keeps runs deterministic)")
	)
	flag.Parse()

	if err := run(os.Stdout, options{
		fig:      *fig,
		format:   *format,
		grid:     *grid,
		area:     *area,
		hops:     *hops,
		noPlots:  *noPlots,
		cacheDir: *cacheDir,
		seeds:    *seeds,
		failure:  *failure,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// options carries the parsed command line.
type options struct {
	fig, format      string
	grid, area, hops int
	noPlots          bool
	cacheDir         string
	seeds            int
	failure          float64
}

// seedList expands -seeds N to the canonical ensemble {1..N}.
func (o options) seedList() []int64 { return simulate.SeedRange(o.seeds) }

func run(w io.Writer, o options) error {
	if o.format != "text" && o.format != "csv" {
		return fmt.Errorf("unknown format %q", o.format)
	}
	emit := func(t *report.Table, p *report.Plot) error {
		if o.format == "csv" {
			return t.WriteCSV(w)
		}
		if err := t.WriteText(w); err != nil {
			return err
		}
		if p != nil && !o.noPlots {
			fmt.Fprintln(w)
			if err := p.Write(w); err != nil {
				return err
			}
		}
		fmt.Fprintln(w)
		return nil
	}

	// One result cache shared by every simulator-backed figure of this
	// invocation; disk-backed when -cache-dir is set, so the next
	// invocation starts warm.
	var cache *simulate.Cache
	if o.cacheDir != "" {
		var err error
		if cache, err = simulate.NewDiskCache(o.cacheDir, 0); err != nil {
			return err
		}
	} else {
		cache = simulate.NewCache(0)
	}

	base := qnet.IonTrap2006()
	wanted := strings.Split(o.fig, ",")
	has := func(name string) bool {
		for _, f := range wanted {
			if f == name || f == "all" {
				return true
			}
		}
		return false
	}
	matched := false

	if has("table1") {
		matched = true
		if err := emit(figures.Table1(base), nil); err != nil {
			return err
		}
	}
	if has("table2") {
		matched = true
		if err := emit(figures.Table2(base), nil); err != nil {
			return err
		}
	}
	if has("claims") {
		matched = true
		if err := emit(figures.Claims(base), nil); err != nil {
			return err
		}
	}
	if has("8") {
		matched = true
		t, p := figures.Fig8(base, 25)
		if err := emit(t, p); err != nil {
			return err
		}
	}
	if has("9") {
		matched = true
		t, p := figures.Fig9(base, 70)
		if err := emit(t, p); err != nil {
			return err
		}
	}
	if has("10") {
		matched = true
		t, p := figures.Fig10(channel.DefaultDistribution(base), false)
		if err := emit(t, p); err != nil {
			return err
		}
	}
	if has("11") {
		matched = true
		t, p := figures.Fig10(channel.DefaultDistribution(base), true)
		if err := emit(t, p); err != nil {
			return err
		}
	}
	if has("12") {
		matched = true
		t, p := figures.Fig12(base, o.hops)
		if err := emit(t, p); err != nil {
			return err
		}
	}
	if has("16") {
		matched = true
		cfg := figures.DefaultFig16Config()
		cfg.GridSize = o.grid
		cfg.Area = o.area
		cfg.Seeds = o.seedList()
		cfg.FailureRate = o.failure
		cfg.Cache = cache
		data, err := figures.Fig16(cfg)
		if err != nil {
			return err
		}
		if err := emit(data.Table(), data.Plot()); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "figures: fig16 sweep:", data.Sweep)
	}
	if has("memm") {
		matched = true
		cfg := figures.DefaultMEMMConfig(o.grid)
		cfg.Seeds = o.seedList()
		cfg.FailureRate = o.failure
		cfg.Cache = cache
		data, err := figures.MEMM(cfg)
		if err != nil {
			return err
		}
		if err := emit(data.Table, nil); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "figures: memm sweep:", data.Sweep)
	}
	if has("routing") {
		matched = true
		cfg := figures.DefaultRoutingConfig(o.grid)
		cfg.Seeds = o.seedList()
		cfg.FailureRate = o.failure
		cfg.Cache = cache
		data, err := figures.Routing(cfg)
		if err != nil {
			return err
		}
		if err := emit(data.Table(), nil); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "figures: routing sweep:", data.Sweep)
	}
	if has("congestion") {
		matched = true
		cfg := figures.DefaultCongestionConfig(o.grid)
		cfg.FailureRate = o.failure
		data, err := figures.Congestion(cfg)
		if err != nil {
			return err
		}
		if err := emit(data.Table(), nil); err != nil {
			return err
		}
		if o.format == "text" && !o.noPlots {
			fmt.Fprintln(w, data.Heatmap())
		}
	}
	if !matched {
		return fmt.Errorf("unknown figure %q (want table1, table2, claims, 8, 9, 10, 11, 12, 16, memm, routing, congestion or all)", o.fig)
	}
	if s := cache.Stats(); s.Hits+s.Misses > 0 {
		fmt.Fprintln(os.Stderr, "figures: result cache:", s)
	}
	return nil
}

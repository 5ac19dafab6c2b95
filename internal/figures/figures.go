// Package figures regenerates every table and figure of the paper's
// evaluation from the models in this repository, as report.Table and
// report.Plot values ready for text or CSV output.  It is the single
// source of truth used by cmd/figures, the benchmarks and EXPERIMENTS.md.
package figures

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ecc"
	"repro/internal/fidelity"
	"repro/internal/phys"
	"repro/internal/purify"
	"repro/internal/report"

	"repro/qnet/channel"
)

// Table1 reproduces the paper's Table 1: time constants for ion-trap
// operations, including the derived tgen/ttprt/tprfy entries.
func Table1(p phys.Params) *report.Table {
	t := report.NewTable("Table 1: Time constants for operations in ion trap technology",
		"Operation", "Variable", "Time (µs)")
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	t.AddRow("One-Qubit Gate", "t1q", us(p.Times.OneQubitGate))
	t.AddRow("Two-Qubit Gate", "t2q", us(p.Times.TwoQubitGate))
	t.AddRow("Move One Cell", "tmv", us(p.Times.MoveCell))
	t.AddRow("Measure", "tms", us(p.Times.Measure))
	t.AddRow("Generate", "tgen", us(p.GenerateTime()))
	t.AddRow("Teleport", "ttprt", us(p.TeleportTime(0)))
	t.AddRow("Purify (round)", "tprfy", us(p.PurifyRoundTime(0)))
	return t
}

// Table2 reproduces the paper's Table 2: error probabilities for ion-trap
// operations.
func Table2(p phys.Params) *report.Table {
	t := report.NewTable("Table 2: Error probability constants for ion trap technology",
		"Operation", "Variable", "Error Probability")
	t.AddRow("One-Qubit Gate", "p1q", p.Errors.OneQubitGate)
	t.AddRow("Two-Qubit Gate", "p2q", p.Errors.TwoQubitGate)
	t.AddRow("Move One Cell", "pmv", p.Errors.MoveCell)
	t.AddRow("Measure", "pms", p.Errors.Measure)
	return t
}

// Fig8InitialFidelities are the starting fidelities plotted in Figure 8.
var Fig8InitialFidelities = []float64{0.99, 0.999, 0.9999}

// Fig8 reproduces Figure 8: EPR error after purification rounds for the
// DEJMPS and BBPSSW protocols.
func Fig8(p phys.Params, maxRounds int) (*report.Table, *report.Plot) {
	pts := purify.Fig8Series(p, Fig8InitialFidelities, maxRounds)
	t := report.NewTable("Figure 8: EPR error vs purification rounds",
		"Protocol", "InitialFidelity", "Round", "Error")
	plot := report.NewPlot("Figure 8: error after purification rounds (lower is better)",
		"purification rounds", "EPR error (1-fidelity)")
	plot.LogY = true

	curves := map[string]*report.Series{}
	var order []string
	for _, pt := range pts {
		t.AddRow(pt.Protocol, pt.InitialFidelity, pt.Round, pt.Error)
		key := fmt.Sprintf("%s F0=%g", pt.Protocol, pt.InitialFidelity)
		c, ok := curves[key]
		if !ok {
			c = &report.Series{Name: key}
			curves[key] = c
			order = append(order, key)
		}
		c.X = append(c.X, float64(pt.Round))
		c.Y = append(c.Y, pt.Error)
	}
	for _, key := range order {
		plot.Add(*curves[key])
	}
	return t, plot
}

// Fig9InitialErrors are the initial EPR error curves of Figure 9.
var Fig9InitialErrors = []float64{1e-4, 1e-5, 1e-6, 1e-7, 1e-8}

// Fig9 reproduces Figure 9: EPR error versus teleportation hop count.
func Fig9(p phys.Params, maxHops int) (*report.Table, *report.Plot) {
	pts := Fig9Series(p, Fig9InitialErrors, maxHops)
	t := report.NewTable("Figure 9: EPR error at logical qubit vs teleportation hops",
		"InitialError", "Hops", "Error")
	plot := report.NewPlot("Figure 9: error vs teleport distance (threshold 7.5e-5)",
		"distance in teleportation hops", "EPR error (1-fidelity)")
	plot.LogY = true

	curves := map[float64]*report.Series{}
	var order []float64
	for _, pt := range pts {
		t.AddRow(pt.InitialError, pt.Hops, pt.Error)
		c, ok := curves[pt.InitialError]
		if !ok {
			c = &report.Series{Name: fmt.Sprintf("initial error %.0e", pt.InitialError)}
			curves[pt.InitialError] = c
			order = append(order, pt.InitialError)
		}
		c.X = append(c.X, float64(pt.Hops))
		c.Y = append(c.Y, pt.Error)
	}
	for _, e := range order {
		plot.Add(*curves[e])
	}
	// Threshold line.
	thr := report.Series{Name: "threshold error 7.5e-5"}
	for h := 0; h <= maxHops; h++ {
		thr.X = append(thr.X, float64(h))
		thr.Y = append(thr.Y, fidelity.ThresholdError)
	}
	plot.Add(thr)
	return t, plot
}

// DistanceHops is the hop range plotted in Figures 10 and 11.
func DistanceHops() []int {
	hops := make([]int, 0, 60)
	for d := 1; d <= 60; d++ {
		hops = append(hops, d)
	}
	return hops
}

// Fig10 reproduces Figure 10 (metric: total EPR pairs used) and Figure 11
// (metric: EPR pairs teleported) from the same evaluation; which figure
// is selected by the teleported flag.
func Fig10(cfg channel.Distribution, teleported bool) (*report.Table, *report.Plot) {
	name, metric := "Figure 10: total EPR pairs used", "TotalPairs"
	if teleported {
		name, metric = "Figure 11: EPR pairs teleported", "TeleportedPairs"
	}
	pts := DistanceSeries(cfg, DistanceHops())
	t := report.NewTable(name+" vs distance and purification placement",
		"Scheme", "Hops", "ArrivalError", "EndpointRounds", metric)
	plot := report.NewPlot(name, "distance travelled in teleports", metric)
	plot.LogY = true

	curves := map[channel.Scheme]*report.Series{}
	for _, pt := range pts {
		val := pt.Cost.TotalPairs
		if teleported {
			val = pt.Cost.TeleportedPairs
		}
		t.AddRow(pt.Scheme.String(), pt.Hops, pt.Cost.ArrivalError, pt.Cost.EndpointRounds, val)
		c, ok := curves[pt.Scheme]
		if !ok {
			c = &report.Series{Name: "DEJMPS " + pt.Scheme.String()}
			curves[pt.Scheme] = c
		}
		// Clip the exponential schemes at 1e8 like the paper's axes.
		if val <= 1e8 {
			c.X = append(c.X, float64(pt.Hops))
			c.Y = append(c.Y, val)
		}
	}
	for _, s := range channel.Schemes {
		plot.Add(*curves[s])
	}
	return t, plot
}

// Fig12Rates is the uniform error-rate sweep of Figure 12: quarter-decade
// steps from 1e-9 to 1e-4.
func Fig12Rates() []float64 {
	var rates []float64
	for exp := -9.0; exp <= -4.0+1e-9; exp += 0.25 {
		rates = append(rates, math.Pow(10, exp))
	}
	return rates
}

// Fig12 reproduces Figure 12: EPR pairs teleported to support one data
// communication versus a uniform operation error rate, at the given path
// length.  The paper does not state the path length; we default to 10
// hops (see EXPERIMENTS.md).
func Fig12(base phys.Params, hops int) (*report.Table, *report.Plot) {
	pts := Fig12Series(base, Fig12Rates(), hops)
	t := report.NewTable(fmt.Sprintf("Figure 12: EPR pairs teleported vs uniform error rate (%d hops)", hops),
		"Scheme", "ErrorRate", "Feasible", "EndpointRounds", "TeleportedPairs")
	plot := report.NewPlot("Figure 12: pairs teleported vs operation error rate",
		"error rate of all operations", "EPR pairs teleported")
	plot.LogX, plot.LogY = true, true

	curves := map[channel.Scheme]*report.Series{}
	for _, pt := range pts {
		t.AddRow(pt.Scheme.String(), pt.ErrorRate, pt.Cost.Feasible, pt.Cost.EndpointRounds, pt.Cost.TeleportedPairs)
		c, ok := curves[pt.Scheme]
		if !ok {
			c = &report.Series{Name: "DEJMPS " + pt.Scheme.String()}
			curves[pt.Scheme] = c
		}
		if pt.Cost.Feasible && pt.Cost.TeleportedPairs <= 1e12 {
			c.X = append(c.X, pt.ErrorRate)
			c.Y = append(c.Y, pt.Cost.TeleportedPairs)
		}
	}
	for _, s := range channel.Schemes {
		plot.Add(*curves[s])
	}
	return t, plot
}

// Claims reproduces the scattered numeric claims of the paper's text.
func Claims(p phys.Params) *report.Table {
	t := report.NewTable("Numeric claims from the paper's text",
		"Claim", "Paper", "Measured")
	t.AddRow("Corner-to-corner error, 1000x1000 grid (§1)", "> 1e-3",
		fidelity.CornerToCornerError(p, 1000))
	t.AddRow("Teleport/ballistic latency crossover (§4.6)", "~600 cells",
		p.CrossoverCells())
	t.AddRow("64-hop error amplification at 1e-6 (§4.6/Fig 9)", "~100x",
		(1-fidelity.TeleportChain(p, 1-1e-6, 1-1e-6, 64))/1e-6)
	code, err := ecc.Steane(2)
	if err == nil {
		t.AddRow("EPR pairs per logical communication (§5.3)", "392",
			code.RawPairsPerLogicalTeleport(3))
	}
	t.AddRow("Distribution breakdown error rate (Fig 12)", "near 1e-5",
		BreakdownRate(p, 10, 1e-7, 1e-3))
	cfg := channel.DefaultDistribution(p)
	t.AddRow("Pairs to set up one channel, 30 hops, end-only (§6)", "several dozen",
		cfg.Evaluate(channel.EndpointsOnly, 30).TeleportedPairs/30)
	return t
}

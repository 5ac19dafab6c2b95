// The data series behind Figures 9-12, computed from the qnet/channel
// distribution model.

package figures

import (
	"math"

	"repro/internal/fidelity"
	"repro/internal/phys"

	"repro/qnet/channel"
)

// Fig9Point is one sample of Figure 9: the error of an EPR pair after a
// number of chained teleportations, for a given initial pair quality
// (both the traveling pair and the wire link pairs start at the initial
// error).
type Fig9Point struct {
	InitialError float64
	Hops         int
	Error        float64
}

// Fig9Series reproduces Figure 9: final EPR error as a function of
// teleport count for each initial error, 0..maxHops hops.  The paper
// plots initial errors 1e-4 .. 1e-8 against the 7.5e-5 threshold line and
// notes that 64 teleports raise the error by roughly two orders of
// magnitude.
func Fig9Series(p phys.Params, initialErrors []float64, maxHops int) []Fig9Point {
	var out []Fig9Point
	for _, e0 := range initialErrors {
		link := fidelity.Werner(1 - e0)
		state := link
		out = append(out, Fig9Point{e0, 0, state.Error()})
		for h := 1; h <= maxHops; h++ {
			state = fidelity.TeleportBell(p, state, link)
			out = append(out, Fig9Point{e0, h, state.Error()})
		}
	}
	return out
}

// Fig10Point is one sample of Figures 10 and 11: delivery cost versus
// distance for one placement scheme.
type Fig10Point struct {
	Scheme channel.Scheme
	Hops   int
	Cost   channel.Cost
}

// DistanceSeries evaluates every scheme of c at each distance,
// producing the data behind Figures 10 (TotalPairs) and 11
// (TeleportedPairs).
func DistanceSeries(c channel.Distribution, hops []int) []Fig10Point {
	var out []Fig10Point
	for _, s := range channel.Schemes {
		for _, h := range hops {
			out = append(out, Fig10Point{s, h, c.Evaluate(s, h)})
		}
	}
	return out
}

// Fig12Point is one sample of Figure 12: pairs teleported to sustain the
// threshold as a function of a uniform operation error rate.
type Fig12Point struct {
	Scheme    channel.Scheme
	ErrorRate float64
	Cost      channel.Cost
}

// Fig12Series reproduces Figure 12: for each scheme, sweep a uniform
// error rate applied to every operation (gates, movement, measurement)
// and report the pairs that must be teleported to deliver one
// above-threshold pair over the given distance.  Points where the
// distribution network breaks down (purification cannot reach the
// threshold) are reported with Feasible=false — the abrupt ends near
// 1e-5 in the paper's figure.
func Fig12Series(base phys.Params, rates []float64, hops int) []Fig12Point {
	var out []Fig12Point
	for _, s := range channel.Schemes {
		for _, r := range rates {
			cfg := channel.DefaultDistribution(base.WithUniformError(r))
			out = append(out, Fig12Point{s, r, cfg.Evaluate(s, hops)})
		}
	}
	return out
}

// BreakdownRate locates the uniform error rate at which the distribution
// network stops working (Figure 12's line ends) by bisecting between lo
// and hi.  It returns the highest rate (within a 5% multiplicative
// tolerance) at which EndpointsOnly delivery over hops is still feasible.
func BreakdownRate(base phys.Params, hops int, lo, hi float64) float64 {
	feasible := func(rate float64) bool {
		cfg := channel.DefaultDistribution(base.WithUniformError(rate))
		return cfg.Evaluate(channel.EndpointsOnly, hops).Feasible
	}
	if !feasible(lo) {
		return lo
	}
	if feasible(hi) {
		return hi
	}
	for hi/lo > 1.05 {
		mid := lo * math.Sqrt(hi/lo) // geometric midpoint
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

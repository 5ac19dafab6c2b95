package channel

import (
	"fmt"
	"math"

	"repro/internal/fidelity"
	"repro/internal/phys"
	"repro/internal/purify"
)

// Scheme selects where purification is performed during EPR pair
// distribution (the five curves of Figures 10-12).
type Scheme int

const (
	// EndpointsOnly purifies only at the channel endpoints, immediately
	// before pairs are used to teleport data.
	EndpointsOnly Scheme = iota
	// OnceBefore additionally pumps every virtual-wire link pair once
	// before it is used for chained teleportation.
	OnceBefore
	// TwiceBefore pumps every virtual-wire link pair twice.
	TwiceBefore
	// OnceAfter purifies the traveling pair once after every teleport.
	OnceAfter
	// TwiceAfter purifies the traveling pair twice after every teleport.
	TwiceAfter
)

// Schemes lists all five placement policies in the paper's Figure 10
// legend order (bottom of the figure first).
var Schemes = []Scheme{EndpointsOnly, OnceBefore, TwiceBefore, OnceAfter, TwiceAfter}

// String implements fmt.Stringer with the paper's legend labels.
func (s Scheme) String() string {
	switch s {
	case EndpointsOnly:
		return "only at end"
	case OnceBefore:
		return "once before teleport"
	case TwiceBefore:
		return "twice before teleport"
	case OnceAfter:
		return "once after each teleport"
	case TwiceAfter:
		return "twice after each teleport"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// PumpRounds returns the number of purification pump rounds the scheme
// applies per link pair (before-schemes) or per hop (after-schemes).
func (s Scheme) PumpRounds() int {
	switch s {
	case OnceBefore, OnceAfter:
		return 1
	case TwiceBefore, TwiceAfter:
		return 2
	default:
		return 0
	}
}

// After reports whether the scheme purifies the traveling pair after
// every teleport (the exponential-resource policies).
func (s Scheme) After() bool { return s == OnceAfter || s == TwiceAfter }

// Distribution models EPR-pair distribution over a chain of teleporter
// hops: the channel-setup model's parameters.
type Distribution struct {
	// Params are the device constants (Tables 1 and 2).
	Params phys.Params
	// HopCells is the ballistic span of one teleporter hop; the paper
	// derives 600 cells from the latency crossover.
	HopCells int
	// Protocol is the purification protocol used everywhere (the paper
	// settles on DEJMPS after Figure 8).
	Protocol purify.Protocol
	// TargetError is the error the delivered pair must not exceed; the
	// paper uses the fault-tolerance threshold 7.5e-5.
	TargetError float64
	// MaxEndpointRounds caps the endpoint purification tree depth when
	// searching for feasibility (breakdown detection for Figure 12).
	MaxEndpointRounds int
}

// DefaultDistribution returns the paper's channel-setup model: 600-cell
// hops, DEJMPS purification, the 7.5e-5 threshold.
func DefaultDistribution(p phys.Params) Distribution {
	return Distribution{
		Params:            p,
		HopCells:          600,
		Protocol:          purify.DEJMPS{Params: p},
		TargetError:       fidelity.ThresholdError,
		MaxEndpointRounds: 40,
	}
}

// Validate reports configuration errors.
func (c Distribution) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.HopCells < 1 {
		return fmt.Errorf("channel: HopCells must be >= 1, got %d", c.HopCells)
	}
	if c.Protocol == nil {
		return fmt.Errorf("channel: Protocol must be set")
	}
	if c.TargetError <= 0 || c.TargetError >= 1 {
		return fmt.Errorf("channel: TargetError must be in (0,1), got %g", c.TargetError)
	}
	if c.MaxEndpointRounds < 1 {
		return fmt.Errorf("channel: MaxEndpointRounds must be >= 1, got %d", c.MaxEndpointRounds)
	}
	return nil
}

// RawLinkPair returns the state of a virtual-wire link pair as delivered
// by its G node: generated (Eq 4) and ballistically distributed over the
// hop (half the hop distance per side, the full hop of movement error on
// the pair).
func (c Distribution) RawLinkPair() fidelity.Bell {
	gen := fidelity.Werner(fidelity.GeneratePerfectInit(c.Params))
	return gen.AfterBallistic(c.Params, c.HopCells)
}

// pump applies rounds of entanglement pumping to base: each round
// purifies the current pair with one fresh copy of fresh.  It returns the
// pumped state and the expected total number of fresh-quality pairs
// consumed per pumped pair (including the base pair), accounting for
// retries on purification failure.
func pump(proto purify.Protocol, base, fresh fidelity.Bell, rounds int) (fidelity.Bell, float64) {
	state := base
	cost := 1.0
	for i := 0; i < rounds; i++ {
		next, ps := proto.Round(state, fresh)
		if ps <= 0 {
			return state, math.Inf(1)
		}
		cost = (cost + 1) / ps
		state = next
	}
	return state, cost
}

// WirePair returns the link-pair state used for chained teleportation
// under the given number of pump rounds, together with the expected raw
// link pairs consumed per delivered wire pair.
func (c Distribution) WirePair(pumpRounds int) (fidelity.Bell, float64) {
	raw := c.RawLinkPair()
	return pump(c.Protocol, raw, raw, pumpRounds)
}

// Cost is the resource accounting for delivering one above-threshold EPR
// pair across a path, under a placement scheme (one point of
// Figures 10-12).
type Cost struct {
	Scheme Scheme
	// Hops is the path length in teleporter hops.
	Hops int
	// ArrivalError is the traveling pair's error on arrival at the
	// endpoints, before endpoint purification.
	ArrivalError float64
	// EndpointRounds is the endpoint purification tree depth required to
	// reach the target error.
	EndpointRounds int
	// FinalError is the delivered pair's error after endpoint
	// purification.
	FinalError float64
	// TeleportedPairs is the expected number of pair-teleportations
	// through the network per delivered pair — the Figure 11/12 metric.
	// Every pair moved through the network consumes teleporter bandwidth,
	// so this is the network-strain metric.
	TeleportedPairs float64
	// TotalPairs is the expected number of EPR pairs consumed anywhere
	// (generated at G nodes, pumped into wires, teleported, purified at
	// endpoints) per delivered pair — the Figure 10 metric.
	TotalPairs float64
	// Feasible is false when no endpoint tree depth within
	// MaxEndpointRounds reaches the target (network breakdown, the
	// abrupt line ends of Figure 12).
	Feasible bool
}

// Evaluate computes the delivery cost of one above-threshold EPR pair
// over hops teleporter hops under scheme s.
func (c Distribution) Evaluate(s Scheme, hops int) Cost { return c.evaluate(s, hops, 0) }

// evaluate is Evaluate with the endpoint tree at least depth rounds
// deep (see purifyEnds).
func (c Distribution) evaluate(s Scheme, hops, depth int) Cost {
	if hops < 0 {
		hops = 0
	}
	res := Cost{Scheme: s, Hops: hops}

	switch {
	case !s.After():
		// Wire purification (possibly zero rounds), then chained
		// teleportation of a single traveling pair.
		wire, wireCost := c.WirePair(s.PumpRounds())
		state := wire // the traveling pair starts as one wire-quality pair
		for i := 0; i < hops; i++ {
			state = fidelity.TeleportBell(c.Params, state, wire)
		}
		res.ArrivalError = state.Error()
		// Long-distance distribution randomizes the residual Pauli error
		// across directions, so the endpoint purifier sees Werner-like
		// input — this matches the paper's method of stitching Figure 8's
		// (Werner-start) purification curves onto Figure 9's distribution
		// error.
		rounds, final, eEnd, ok := c.purifyEnds(state.Twirl(), depth)
		res.EndpointRounds = rounds
		res.FinalError = final.Error()
		res.Feasible = ok
		if !ok {
			res.TeleportedPairs = math.Inf(1)
			res.TotalPairs = math.Inf(1)
			return res
		}
		// eEnd arriving pairs per delivered pair; each is teleported
		// through hops hops and consumes one wire pair per hop plus its
		// own generation.
		res.TeleportedPairs = eEnd * float64(hops)
		res.TotalPairs = eEnd * (1 + float64(hops)*wireCost)
		return res

	default:
		// Purify the traveling pair after every teleport, pumping with
		// fresh copies that span the same distance (hence the recursion
		// in cost).  Wires are unpurified.
		wire, _ := c.WirePair(0)
		k := s.PumpRounds()
		state := wire
		// teleported(i), total(i): expected pair-teleports / total pairs
		// consumed to produce one span-i pumped pair.
		teleported := 0.0
		total := 1.0
		for i := 0; i < hops; i++ {
			// Teleport the span-i pair one hop (one pair-hop, one wire
			// link pair consumed), then pump it k times with fresh
			// copies of the same just-teleported state.
			moved := fidelity.TeleportBell(c.Params, state, wire)
			hopTeleported := teleported + 1
			hopTotal := total + 1
			pumped, copies := pump(c.Protocol, moved, moved, k)
			if math.IsInf(copies, 1) {
				res.Feasible = false
				res.TeleportedPairs = math.Inf(1)
				res.TotalPairs = math.Inf(1)
				return res
			}
			state = pumped
			teleported = copies * hopTeleported
			total = copies * hopTotal
		}
		res.ArrivalError = state.Error()
		// See the EndpointsOnly branch for why arrivals are twirled.
		rounds, final, eEnd, ok := c.purifyEnds(state.Twirl(), depth)
		res.EndpointRounds = rounds
		res.FinalError = final.Error()
		res.Feasible = ok
		if !ok {
			res.TeleportedPairs = math.Inf(1)
			res.TotalPairs = math.Inf(1)
			return res
		}
		res.TeleportedPairs = eEnd * teleported
		res.TotalPairs = eEnd * total
		return res
	}
}

// purifyEnds purifies the arrived pair at the endpoints in the fewest
// rounds that reach the target, then on to depth rounds if that is
// deeper: each further round lowers the error and multiplies the pairs
// consumed by 2 over its acceptance probability.
func (c Distribution) purifyEnds(arrived fidelity.Bell, depth int) (int, fidelity.Bell, float64, bool) {
	rounds, final, pairs, ok := purify.RoundsToReach(c.Protocol, arrived, c.TargetError, c.MaxEndpointRounds)
	for ; ok && rounds < depth; rounds++ {
		next, ps := c.Protocol.Round(final, final)
		pairs *= 2 / ps
		final = next
	}
	return rounds, final, pairs, ok
}

package channel

import (
	"fmt"
	"time"

	"repro/internal/ecc"
	"repro/internal/mesh"
	"repro/internal/phys"

	"repro/qnet"
	"repro/qnet/route"
)

// Spec describes a channel to be planned.  The path is given either
// abstractly (Hops, a straight path with no turns) or concretely (Grid
// with Src/Dst endpoints plus an optional Route policy), in which case
// the planner derives the hop count and turn count from the same
// routing decision the simulator makes, so the closed-form model and
// the measured one agree on geometry.
type Spec struct {
	// Params are the device constants.
	Params phys.Params
	// Hops is the path length in teleporter-grid hops.  Ignored when
	// Grid is set (the routed path determines it).
	Hops int
	// Grid, when non-empty, pins the channel to a concrete mesh: the
	// path runs from Src to Dst under the Route policy.
	Grid mesh.Grid
	// Src and Dst are the channel endpoints on Grid.
	Src, Dst mesh.Coord
	// Route is the routing policy used to derive the concrete path
	// (nil = dimension order, exactly like the simulator's default).
	// Only consulted when Grid is set.
	Route route.Policy
	// TurnCells is the in-router ballistic distance paid per X/Y turn
	// of the routed path (default 20, the simulator's default).
	TurnCells int
	// HopCells is the physical hop span (default 600).
	HopCells int
	// CodeLevel is the Steane concatenation level of the transported
	// logical qubits (default 2).
	CodeLevel int
	// Scheme is the purification placement policy (default
	// EndpointsOnly).
	Scheme Scheme
	// Teleporters, Generators, Purifiers are the per-node resource
	// counts available to this channel, used for the bandwidth model.
	// Zero values default to 16/16/16.
	Teleporters, Generators, Purifiers int
}

// Channel is a planned reliable quantum channel: the paper's four
// metrics plus the derived resource counts.
type Channel struct {
	Spec Spec

	// ErrorRate is the delivered logical-data error per teleportation —
	// the channel's reliability metric (must be under 7.5e-5).
	ErrorRate float64
	// EndpointRounds is the endpoint purification tree depth.
	EndpointRounds int
	// Turns is the number of X/Y direction changes of the planned
	// path: 0 for an abstract straight-line Spec, and the routed
	// path's turn count when the Spec pins Grid/Src/Dst.  Each turn
	// adds one ballistic set-switch to the setup pipeline fill.
	Turns int
	// PairsPerLogical is the EPR pairs delivered to the endpoints per
	// logical-qubit teleportation.
	PairsPerLogical int
	// PairHopsPerLogical is the pair-teleport operations consumed per
	// logical-qubit teleportation (network strain).
	PairHopsPerLogical float64
	// SetupLatency is the uncontended time from the first EPR pair
	// entering the network to the last purified pair being ready.
	SetupLatency time.Duration
	// DataLatency is the logical teleportation time once the channel is
	// up: local operations plus the classical round trip.  This is the
	// paper's "qubit communication time can approach the latency of
	// classical communication".
	DataLatency time.Duration
	// Bandwidth is the sustainable logical-qubit teleportations per
	// second through this channel given its resource counts.
	Bandwidth float64
	// BottleneckStage names the stage limiting Bandwidth: "generator",
	// "teleporter" or "purifier".
	Bottleneck string
}

// Plan builds the analytical channel model.  A negative resource
// count, span or code level, or an abstract path shorter than one hop,
// is a *qnet.ConfigError naming the field; zero values select the
// defaults documented on Spec.
func Plan(spec Spec) (Channel, error) {
	for _, f := range []struct {
		name  string
		value int
	}{
		{"Teleporters", spec.Teleporters},
		{"Generators", spec.Generators},
		{"Purifiers", spec.Purifiers},
		{"HopCells", spec.HopCells},
		{"TurnCells", spec.TurnCells},
		{"CodeLevel", spec.CodeLevel},
	} {
		if f.value < 0 {
			return Channel{}, &qnet.ConfigError{Field: f.name, Value: f.value, Reason: "must be >= 0 (0 selects the default)"}
		}
	}
	if spec.HopCells == 0 {
		spec.HopCells = 600
	}
	if spec.CodeLevel == 0 {
		spec.CodeLevel = 2
	}
	if spec.Teleporters == 0 {
		spec.Teleporters = 16
	}
	if spec.Generators == 0 {
		spec.Generators = 16
	}
	if spec.Purifiers == 0 {
		spec.Purifiers = 16
	}
	turns := 0
	if spec.Grid.Tiles() > 0 {
		// Concrete path: the routing policy decides hops and turns,
		// exactly as the simulator would for the same endpoints.
		if spec.TurnCells == 0 {
			spec.TurnCells = 20
		}
		policy := spec.Route
		if policy == nil {
			policy = route.Default()
		}
		dirs, err := policy.Route(spec.Grid, spec.Src, spec.Dst, nil)
		if err != nil {
			return Channel{}, err
		}
		if len(dirs) == 0 {
			return Channel{}, fmt.Errorf("channel: endpoints %v and %v coincide", spec.Src, spec.Dst)
		}
		spec.Hops = len(dirs)
		turns = route.Turns(dirs)
	}
	if spec.Hops < 1 {
		return Channel{}, &qnet.ConfigError{Field: "Hops", Value: spec.Hops, Reason: "must be >= 1"}
	}
	if err := spec.Params.Validate(); err != nil {
		return Channel{}, err
	}

	code, err := ecc.Steane(spec.CodeLevel)
	if err != nil {
		return Channel{}, err
	}

	dist := DefaultDistribution(spec.Params)
	dist.HopCells = spec.HopCells
	cost := dist.Evaluate(spec.Scheme, spec.Hops)
	if !cost.Feasible {
		return Channel{}, fmt.Errorf("channel: no purification depth reaches the threshold over %d hops at these error rates", spec.Hops)
	}

	ch := Channel{
		Spec:           spec,
		ErrorRate:      cost.FinalError,
		EndpointRounds: cost.EndpointRounds,
		Turns:          turns,
	}
	pairsPerQubit := 1 << uint(cost.EndpointRounds)
	ch.PairsPerLogical = pairsPerQubit * code.PhysicalQubits()
	ch.PairHopsPerLogical = cost.TeleportedPairs * float64(code.PhysicalQubits())

	p := spec.Params
	// Stage service times for one EPR pair (pairs flow in parallel
	// across resource units).
	genTime := p.GenerateTime()
	teleTime := p.TeleportTime(spec.HopCells)
	// Endpoint purification processes pairsPerQubit arrivals through one
	// queue purifier: the bottom level dominates with pairsPerQubit/2
	// sequential rounds, plus a drain tail of (rounds-1).
	purifyRound := p.PurifyRoundTime(spec.Hops * spec.HopCells)
	purifyBatch := time.Duration(pairsPerQubit/2+cost.EndpointRounds-1) * purifyRound

	// Setup latency: the first batch fills the pipeline (one generate +
	// one teleport per hop), the remaining pairs stream through the
	// slowest stage at its aggregate rate, and the last batch drains
	// through its endpoint purifier.
	setSize := spec.Teleporters / 2
	if setSize < 1 {
		setSize = 1
	}
	fill := time.Duration(spec.Hops) * (genTime + teleTime)
	// A routed path's turns each add one ballistic set switch to the
	// pipeline fill (turns is 0 for an abstract straight-line Spec, so
	// legacy plans are unchanged).
	fill += time.Duration(turns) * p.BallisticTime(spec.TurnCells)
	totalPairs := ch.PairsPerLogical
	perPair := maxDuration(
		genTime/time.Duration(spec.Generators),
		teleTime/time.Duration(setSize),
		purifyBatch/time.Duration(pairsPerQubit*spec.Purifiers),
	)
	stream := time.Duration(totalPairs-pairsPerQubit) * perPair
	ch.SetupLatency = fill + stream + purifyBatch

	// Data latency: Eq 5 over the full physical distance, with the
	// classical bits crossing the same span.
	span := spec.Hops * spec.HopCells
	ch.DataLatency = p.TeleportTime(span)

	// Bandwidth: the slowest per-stage pair throughput, divided by the
	// pairs a logical teleport consumes.
	genRate := float64(spec.Generators) / genTime.Seconds()
	teleRate := float64(setSize) / teleTime.Seconds()
	purifyRate := float64(spec.Purifiers) * float64(pairsPerQubit) / purifyBatch.Seconds()
	rate, stage := genRate, "generator"
	if teleRate < rate {
		rate, stage = teleRate, "teleporter"
	}
	if purifyRate < rate {
		rate, stage = purifyRate, "purifier"
	}
	ch.Bandwidth = rate / float64(ch.PairsPerLogical)
	ch.Bottleneck = stage
	return ch, nil
}

// String renders a channel plan summary.
func (c Channel) String() string {
	return fmt.Sprintf(
		"channel{%d hops, error %.2e, %d pairs/logical, setup %v, data %v, %.1f logical/s (%s-bound)}",
		c.Spec.Hops, c.ErrorRate, c.PairsPerLogical, c.SetupLatency, c.DataLatency, c.Bandwidth, c.Bottleneck)
}

func maxDuration(ds ...time.Duration) time.Duration {
	m := ds[0]
	for _, d := range ds[1:] {
		if d > m {
			m = d
		}
	}
	return m
}

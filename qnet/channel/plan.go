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
// routing decision the simulator makes, so the planned channel and
// the simulated one agree on geometry.
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
	// PurifyDepth is the endpoint purification tree depth d, in [0,
	// 16]: every delivered pair is purified from a batch of 2^d.  0
	// selects the shallowest depth whose output reaches the 7.5e-5
	// threshold.  A positive depth plans the fixed-depth channel the
	// simulator runs (qnetsim -depth, simulate.WithPurifyDepth), with
	// every output of the Channel at that depth; a depth below the one
	// the threshold needs is a *qnet.ConfigError.
	PurifyDepth int
	// Teleporters, Generators, Purifiers are the per-node resource
	// counts available to this channel: t teleporters per T' node (an
	// X and a Y set of ⌊t/2⌋, and t storage cells per incoming link),
	// g generators per link and p purifiers per endpoint.  Zero values
	// default to 16/16/16.
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
	// adds a ballistic move between the node's teleporter sets to every
	// batch's teleport over the hop that turns.
	Turns int
	// PairsPerLogical is the EPR pairs delivered to the endpoints per
	// logical-qubit teleportation.
	PairsPerLogical int
	// PairHopsPerLogical is the pair-teleport operations consumed per
	// logical-qubit teleportation (network strain).
	PairHopsPerLogical float64
	// SetupLatency is the time from the first EPR pair entering an
	// idle mesh until the last batch is purified and its correction
	// bits have crossed the path, so the data can teleport.
	SetupLatency time.Duration
	// DataLatency is the logical teleportation time once the channel is
	// up: local operations plus the classical round trip.  This is the
	// paper's "qubit communication time can approach the latency of
	// classical communication".
	DataLatency time.Duration
	// Bandwidth is the logical-qubit teleportations per second the
	// channel sustains once its batch pipeline is in steady state,
	// given its resource counts.
	Bandwidth float64
	// Bottleneck names the stage limiting Bandwidth: "generator",
	// "teleporter", "purifier" or "storage" (the receiving nodes'
	// storage slots, each held from the batch's generation to its next
	// teleport).
	Bottleneck string
}

// Plan builds the analytical channel model.  A negative resource
// count, span or code level, a purification depth outside [0, 16] or
// below the one the threshold needs, or an abstract path shorter than
// one hop, is a *qnet.ConfigError naming the field; zero values select
// the defaults documented on Spec.
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
	if spec.PurifyDepth < 0 || spec.PurifyDepth > 16 {
		return Channel{}, &qnet.ConfigError{Field: "PurifyDepth", Value: spec.PurifyDepth, Reason: "must be in [0,16] (0 selects the threshold's depth)"}
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
	var dirs []mesh.Direction
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
		var err error
		dirs, err = policy.Route(spec.Grid, spec.Src, spec.Dst, nil)
		if err != nil {
			return Channel{}, err
		}
		if len(dirs) == 0 {
			return Channel{}, fmt.Errorf("channel: endpoints %v and %v coincide", spec.Src, spec.Dst)
		}
		spec.Hops = len(dirs)
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
	cost := dist.evaluate(EndpointsOnly, spec.Hops, spec.PurifyDepth)
	if !cost.Feasible {
		return Channel{}, fmt.Errorf("channel: no purification depth reaches the threshold over %d hops at these error rates", spec.Hops)
	}
	if spec.PurifyDepth > 0 && cost.EndpointRounds > spec.PurifyDepth {
		return Channel{}, &qnet.ConfigError{Field: "PurifyDepth", Value: spec.PurifyDepth,
			Reason: fmt.Sprintf("the threshold needs %d endpoint rounds over %d hops", cost.EndpointRounds, spec.Hops)}
	}

	if dirs == nil {
		// An abstract path runs straight: Hops steps along one axis.
		dirs = make([]mesh.Direction, spec.Hops)
	}
	batches := code.PhysicalQubits()
	purified, period, stage := pipeline(spec, cost.EndpointRounds, dirs, batches)
	span := spec.Hops * spec.HopCells
	return Channel{
		Spec:               spec,
		ErrorRate:          cost.FinalError,
		EndpointRounds:     cost.EndpointRounds,
		Turns:              route.Turns(dirs),
		PairsPerLogical:    code.RawPairsPerLogicalTeleport(cost.EndpointRounds),
		PairHopsPerLogical: cost.TeleportedPairs * float64(batches),
		// The data teleport waits for the last batch's correction
		// bits to cross the path, then takes Eq 5 over the full span.
		SetupLatency: purified + time.Duration(span)*spec.Params.Times.ClassicalBitPerCell,
		DataLatency:  spec.Params.TeleportTime(span),
		Bandwidth:    float64(time.Second) / (period * float64(batches)),
		Bottleneck:   stage,
	}, nil
}

// pipeline runs a channel's batches, one per delivered pair (batches
// of them, 2^d EPR pairs each), through an idle mesh along dirs, and
// returns the end of the last batch's purification, the steady-state
// period between batches in nanoseconds and the stage that sets it.
//
// Alone on the mesh, every stage serves all of a channel's batches for
// the same time, so the batches keep their order at every FIFO stage
// and batch j takes unit j mod c of a stage with c units, once batch
// j−c has freed it.  Their grant times follow a max-plus recurrence.
// Batch j takes, at hop k of h:
//
//   - a storage slot of the receiving tile, A(j,k) = max(R(j,k),
//     Rel(j−W,k)), where R is the time the batch reaches the hop (0 at
//     the source, else the end of its previous teleport) and Rel(j,k)
//     the time it frees that slot: W = max(1, ⌊t/2^d⌋) slots;
//   - a generator, G(j,k) = max(A(j,k), G(j−g,k)+γ), held for
//     γ = GenerateTime·⌈2^d/g⌉;
//   - a teleporter of the sending tile's set, T(j,k) = max(G(j,k)+γ,
//     T(j−s,k)+τ_k), held for τ_k = TeleportTime(HopCells)·⌈2^d/s⌉
//     plus BallisticTime(TurnCells) on a turn, with s = max(1, ⌊t/2⌋);
//     the slot of the previous hop frees at its end, Rel(j,k−1) =
//     T(j,k)+τ_k.
//
// After the last hop and the correction κ = 2·OneQubitGate, the batch
// takes both endpoint purifiers, P(j) = max(arrival+κ, P(j−p)+π),
// with π = PurifyRoundTime(h·HopCells)·(2^(d−1)+d−1) (0 at d = 0, when
// nothing is purified), and frees its last slot, Rel(j,h−1) = P(j).
// The last purification ends at max_j P(j) + π.
//
// The recurrence's only cycles are each stage's units and each hop's
// storage slots, so in steady state a batch leaves every period, the
// largest of γ/g, τ_k/s, π/p and each slot's uncontended hold over W:
// 2γ+τ_k+τ_{k+1} at hop k, γ+τ_{h−1}+κ at the last hop.
func pipeline(spec Spec, depth int, dirs []mesh.Direction, batches int) (purified time.Duration, period float64, stage string) {
	p := spec.Params
	pairs := 1 << depth
	perUnit := func(units int) time.Duration { return time.Duration((pairs + units - 1) / units) }
	window := max(1, spec.Teleporters/pairs)
	set := max(1, spec.Teleporters/2)
	gamma := p.GenerateTime() * perUnit(spec.Generators)
	h := len(dirs)
	tau := make([]time.Duration, h)
	for k := range tau {
		tau[k] = p.TeleportTime(spec.HopCells) * perUnit(set)
		if k > 0 && dirs[k].Axis() != dirs[k-1].Axis() {
			tau[k] += p.BallisticTime(spec.TurnCells)
		}
	}
	kappa := 2 * p.Times.OneQubitGate
	var pi time.Duration
	if depth > 0 {
		pi = p.PurifyRoundTime(h*spec.HopCells) * time.Duration(1<<(depth-1)+depth-1)
	}

	period, stage = float64(gamma)/float64(spec.Generators), "generator"
	bound := func(hold time.Duration, units int, name string) {
		if v := float64(hold) / float64(units); v > period {
			period, stage = v, name
		}
	}
	for k := range tau {
		bound(tau[k], set, "teleporter")
	}
	bound(pi, spec.Purifiers, "purifier")
	for k := range tau {
		hold := gamma + tau[k] + kappa
		if k+1 < h {
			hold = 2*gamma + tau[k] + tau[k+1]
		}
		bound(hold, window, "storage")
	}

	// Each stage keeps the time each of its units frees, one ring of at
	// most batches units per hop.
	nw, ng, ns := min(window, batches), min(spec.Generators, batches), min(set, batches)
	slot := make([]time.Duration, h*nw)
	gen := make([]time.Duration, h*ng)
	tel := make([]time.Duration, h*ns)
	pur := make([]time.Duration, min(spec.Purifiers, batches))
	var last time.Duration
	for j := range batches {
		var reach time.Duration
		for k := range h {
			g := &gen[k*ng+j%ng]
			start := max(reach, slot[k*nw+j%nw], *g)
			*g = start + gamma
			u := &tel[k*ns+j%ns]
			*u = max(start+gamma, *u) + tau[k]
			reach = *u
			if k > 0 {
				slot[(k-1)*nw+j%nw] = reach
			}
		}
		u := &pur[j%len(pur)]
		start := max(reach+kappa, *u)
		*u = start + pi
		slot[(h-1)*nw+j%nw] = start
		last = max(last, start)
	}
	return last + pi, period, stage
}

// String renders a channel plan summary.
func (c Channel) String() string {
	return fmt.Sprintf(
		"channel{%d hops, error %.2e, %d pairs/logical, setup %v, data %v, %.1f logical/s (%s-bound)}",
		c.Spec.Hops, c.ErrorRate, c.PairsPerLogical, c.SetupLatency, c.DataLatency, c.Bandwidth, c.Bottleneck)
}

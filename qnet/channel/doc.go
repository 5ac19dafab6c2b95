// Package channel is the closed-form model of the paper's primary
// contribution, the reliable quantum channel (Section 4).  A channel
// connects two points of the quantum datapath by distributing
// high-fidelity EPR pairs to its endpoints; once set up, it teleports
// logical qubits with near-classical latency.  The package answers the
// questions the paper's abstract promises — the latency, bandwidth,
// error rate and resources of such a channel — instantly, for one path
// at a time:
//
//   - EPR-pair distribution (Distribution, Figures 9-12): chained
//     teleportation over virtual-wire links, the five purification
//     placement policies of Section 4.7, and the resource accounting
//     behind Figures 10-12.
//   - The ballistic methodology (Figures 2, 4 and 5): the alternative
//     in which EPR pairs are generated at a midpoint G node and
//     physically shuttled down channels of ion traps to purifier nodes
//     near the endpoints (BallisticDistribution), the electrode-level
//     pulse program of Figure 2 that quantifies the Classical Control
//     Complexity metric of Section 3.3 (PlanMove), and the Section 4.6
//     comparison of the two methodologies (CompareMethodologies): their
//     final fidelities are approximately equal, because gate error is
//     far below movement error for ion traps, while their latencies
//     cross over near 600 cells.
//   - Channel planning (Plan): the latency, bandwidth, error-rate and
//     resource metrics of one channel, from the device parameters, the
//     error-correction level, the purification policy and the path
//     length.
//
// Terminology (Sections 3 and 4):
//
//   - A virtual wire is the constant stream of EPR pairs a G node
//     generates between two adjacent T' (teleporter) nodes one hop
//     (~600 cells) apart.  A "link pair" is one pair of that stream.
//   - Channel setup distributes an end-to-end EPR pair by chaining
//     teleports across the wire links, then purifies at the endpoints
//     until the pair is above the fault-tolerance threshold.
//   - "Before teleport" purification pumps each link pair with fresh
//     pairs from its G node before it is used to teleport (virtual-wire
//     purification).  "After each teleport" purifies the traveling pair
//     itself after every hop, which requires extra copies spanning the
//     same distance and is therefore exponential in hop count.
//
// The event-driven simulator in qnet/simulate measures the same
// quantities under contention; the tests cross-validate the two.
//
//	p := qnet.IonTrap2006()
//	cost := channel.DefaultDistribution(p).Evaluate(channel.EndpointsOnly, 30)
//	ch, err := channel.Plan(channel.Spec{Params: p, Hops: 30})
//
// A Spec can also pin the channel to a concrete mesh path: set Grid,
// Src and Dst (plus an optional qnet/route policy), and the planner
// derives the hop and turn counts from the same routing decision the
// simulator makes.
package channel

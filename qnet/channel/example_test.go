package channel_test

import (
	"fmt"

	"repro/qnet"
	"repro/qnet/channel"
)

// Example evaluates the paper's channel-setup model: EPR pairs
// distributed over a 30-hop path with endpoint-only purification, the
// policy the paper adopts after Figures 10-12.
func Example() {
	p := qnet.IonTrap2006()
	cost := channel.DefaultDistribution(p).Evaluate(channel.EndpointsOnly, 30)
	fmt.Printf("feasible=%v endpointRounds=%d pairsPerHop=%.0f\n",
		cost.Feasible, cost.EndpointRounds, cost.TeleportedPairs/30)
	// Output:
	// feasible=true endpointRounds=3 pairsPerHop=8
}

// Example_compareMethodologies contrasts ballistic EPR distribution
// with chained teleportation over the same physical distance — the
// paper's Section 4.6 crossover argument for teleporter spacing.
func Example_compareMethodologies() {
	p := qnet.IonTrap2006()
	c, err := channel.CompareMethodologies(p, 6000, 600)
	if err != nil {
		panic(err)
	}
	fmt.Printf("ballistic %v vs teleport %v over 6000 cells\n",
		c.BallisticLatency, c.TeleportLatency)
	fmt.Printf("teleportation is %.1fx faster\n",
		float64(c.BallisticLatency)/float64(c.TeleportLatency))
	// Output:
	// ballistic 1.2ms vs teleport 128µs over 6000 cells
	// teleportation is 9.4x faster
}

// ExamplePlan plans the paper's longest channel, 30 hops across a
// 16×16 mesh at 16 teleporters, generators and purifiers per node:
// depth-3 purification of 8 pairs for each of the 49 physical qubits
// of a level-2 logical qubit.  Its batches wait on the 2 storage slots
// of each node they cross.
func ExamplePlan() {
	ch, err := channel.Plan(channel.Spec{Params: qnet.IonTrap2006(), Hops: 30})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d endpoint rounds, %d pairs\n", ch.EndpointRounds, ch.PairsPerLogical)
	fmt.Printf("setup %v, data %v\n", ch.SetupLatency, ch.DataLatency)
	fmt.Printf("%.1f logical/s, %s-bound\n", ch.Bandwidth, ch.Bottleneck)
	// Output:
	// 3 endpoint rounds, 392 pairs
	// setup 19.9268ms, data 140µs
	// 83.4 logical/s, storage-bound
}

package netsim

import (
	"repro/internal/mesh"
	"repro/internal/sim"
)

// node is one tile's T' node, the quantum router of the paper's
// Figure 6: its teleporters split into an X set and a Y set of t/2
// each (at least one), time multiplexed between the channels crossing
// the node by the sets' FIFO queues, and storage for the batches
// arriving over each incoming link.  A batch that turns at the node
// pays the ballistic move between the two sets, which turnQ's delay
// holds; turns counts those batches.
type node struct {
	// sets is indexed by mesh.Direction.Axis: 0 for X traffic, 1 for Y.
	sets [2]*sim.Resource
	// storage is indexed by the direction the traffic arrives from; a
	// border tile has none toward the edge.
	storage [4]*sim.Semaphore
	turns   uint64
}

// axisLoad reports the live pressure on the teleporter set for an axis:
// jobs in service plus jobs waiting, over the set's capacity.  0 means
// idle; above 1 means a backlog.  Adaptive routing reads it through the
// loads adapter at channel setup and for every resent batch.
func (n *node) axisLoad(axis int) float64 {
	r := n.sets[axis]
	return float64(r.InUse()+r.QueueLen()) / float64(r.Capacity())
}

// storageLoad reports the pressure on the storage for traffic arriving
// from a direction: credits taken plus acquirers queued, over the
// storage limit, or 0 where the node has no link.  Like axisLoad it
// exceeds 1 under backlog.
func (n *node) storageLoad(from mesh.Direction) float64 {
	s := n.storage[from]
	if s == nil {
		return 0
	}
	return float64(s.Limit()-s.Available()+s.Waiting()) / float64(s.Limit())
}

// occupancy returns the node's live queue occupancy in batches: jobs in
// service or waiting at both teleporter sets, plus storage credits taken
// or queued for on every incoming link.  It sums exactly the counters
// axisLoad and storageLoad normalize, so the tracer's occupancy series
// and adaptive routing's load view read one signal.
func (n *node) occupancy() int {
	occ := 0
	for _, r := range n.sets {
		occ += r.InUse() + r.QueueLen()
	}
	for _, s := range n.storage {
		if s != nil {
			occ += s.Limit() - s.Available() + s.Waiting()
		}
	}
	return occ
}

// utilization returns the mean utilization of the two teleporter sets.
func (n *node) utilization() float64 {
	return (n.sets[0].Utilization() + n.sets[1].Utilization()) / 2
}

package purify

import (
	"fmt"

	"repro/internal/fidelity"
)

// QueuePurifier is the robust queue-based purifier of the paper's
// Figure 14.  A purification tree of depth n is implemented with n
// hardware purifiers instead of 2^n - 1: incoming pairs are purified at
// level L0; successes move to L1 and are purified there, and so on.
// Failed purifications simply discard both pairs, and the subtree is
// rebuilt naturally by later arrivals.  The cost is latency: the x
// purifications needed at L0 happen sequentially.
//
// The QueuePurifier is a state machine; time is accounted by the caller
// (each purification step it reports costs one purification round of
// latency).  Randomness is injected through the Decide hook so that
// discrete-event simulations stay deterministic under a seeded RNG and
// analytical studies can force expected-value behaviour.
type QueuePurifier struct {
	proto  Protocol
	levels []slot
	// Decide returns whether a purification with the given success
	// probability succeeds.  If nil, purification always succeeds
	// (the expected-value pipeline view used for capacity planning).
	Decide func(pSuccess float64) bool

	offered   int
	produced  int
	purifies  int
	discarded int
}

type slot struct {
	occupied bool
	state    fidelity.Bell
}

// NewQueuePurifier builds a queue purifier of the given depth (number of
// levels, i.e. purification rounds applied to every emitted pair).  The
// paper's simulations use depth 3.
func NewQueuePurifier(proto Protocol, depth int) (*QueuePurifier, error) {
	if depth < 1 {
		return nil, fmt.Errorf("purify: queue purifier depth must be >= 1, got %d", depth)
	}
	if proto == nil {
		return nil, fmt.Errorf("purify: queue purifier needs a protocol")
	}
	return &QueuePurifier{proto: proto, levels: make([]slot, depth)}, nil
}

// Depth returns the number of levels.
func (q *QueuePurifier) Depth() int { return len(q.levels) }

// OfferResult describes what happened when a pair was offered to the
// queue purifier.
type OfferResult struct {
	// Purifications is the number of purification operations performed
	// as the pair cascaded up the levels.  Each costs one purification
	// round of latency at the caller's clock.
	Purifications int
	// Output is the fully purified pair emitted from the top level, if
	// any.
	Output fidelity.Bell
	// Emitted reports whether Output is valid.
	Emitted bool
}

// Offer feeds one raw pair into level 0 and cascades any purifications it
// triggers.  At most one purification per level can trigger per offer, so
// Purifications <= Depth().
func (q *QueuePurifier) Offer(pair fidelity.Bell) OfferResult {
	q.offered++
	var res OfferResult
	current := pair
	for lvl := 0; lvl < len(q.levels); lvl++ {
		s := &q.levels[lvl]
		if !s.occupied {
			s.occupied = true
			s.state = current
			return res
		}
		// Two pairs at this level: purify them.
		out, ps := q.proto.Round(s.state, current)
		s.occupied = false
		q.purifies++
		res.Purifications++
		if !q.decide(ps) {
			q.discarded += 2
			return res
		}
		current = out
	}
	// Cascaded out of the top level: a fully purified pair.
	q.produced++
	res.Output = current
	res.Emitted = true
	return res
}

func (q *QueuePurifier) decide(p float64) bool {
	if q.Decide == nil {
		return true
	}
	return q.Decide(p)
}

// Stats reports cumulative counters: pairs offered, fully purified pairs
// emitted, purification operations performed, and pairs lost to failed
// purifications.
func (q *QueuePurifier) Stats() (offered, produced, purifies, discarded int) {
	return q.offered, q.produced, q.purifies, q.discarded
}

// Occupancy returns the number of levels currently holding a waiting
// pair.
func (q *QueuePurifier) Occupancy() int {
	n := 0
	for _, s := range q.levels {
		if s.occupied {
			n++
		}
	}
	return n
}

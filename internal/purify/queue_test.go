package purify

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fidelity"
)

func mustQueue(t *testing.T, depth int) *QueuePurifier {
	t.Helper()
	q, err := NewQueuePurifier(DEJMPS{base}, depth)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestNewQueuePurifierValidation(t *testing.T) {
	if _, err := NewQueuePurifier(DEJMPS{base}, 0); err == nil {
		t.Error("depth 0 should be rejected")
	}
	if _, err := NewQueuePurifier(nil, 3); err == nil {
		t.Error("nil protocol should be rejected")
	}
}

func TestQueuePurifierEmitsEveryEighthPair(t *testing.T) {
	// Depth 3, always-succeeding: exactly one output per 8 offered pairs
	// (Figure 14; paper §5.3 uses 2^3 = 8 pairs per purified pair).
	q := mustQueue(t, 3)
	in := fidelity.Werner(0.999)
	emitted := 0
	for i := 1; i <= 64; i++ {
		res := q.Offer(in)
		if res.Emitted {
			emitted++
			if i%8 != 0 {
				t.Errorf("output emitted at offer %d, want multiples of 8", i)
			}
		}
	}
	if emitted != 8 {
		t.Errorf("emitted %d outputs from 64 pairs, want 8", emitted)
	}
}

func TestQueuePurifierOutputQualityMatchesTree(t *testing.T) {
	// The emitted pair must equal three symmetric tree rounds.
	q := mustQueue(t, 3)
	in := fidelity.Werner(0.999)
	var out fidelity.Bell
	for i := 0; i < 8; i++ {
		if res := q.Offer(in); res.Emitted {
			out = res.Output
		}
	}
	want := Rounds(DEJMPS{base}, in, 3)[2].State
	if diff := out.Fidelity() - want.Fidelity(); diff > 1e-12 || diff < -1e-12 {
		t.Errorf("queue output fidelity %g != tree fidelity %g", out.Fidelity(), want.Fidelity())
	}
}

func TestQueuePurifierPurificationCountsPerOffer(t *testing.T) {
	q := mustQueue(t, 3)
	in := fidelity.Werner(0.999)
	// Offers 1..8 trigger 0,1,0,2,0,1,0,3 purifications respectively
	// (binary carry pattern).
	want := []int{0, 1, 0, 2, 0, 1, 0, 3}
	for i, w := range want {
		res := q.Offer(in)
		if res.Purifications != w {
			t.Errorf("offer %d: %d purifications, want %d", i+1, res.Purifications, w)
		}
	}
}

func TestQueuePurifierFailureDiscardsSubtree(t *testing.T) {
	q := mustQueue(t, 2)
	q.Decide = func(float64) bool { return false } // every purification fails
	in := fidelity.Werner(0.9)
	for i := 0; i < 20; i++ {
		if res := q.Offer(in); res.Emitted {
			t.Fatal("nothing should ever be emitted when all purifications fail")
		}
	}
	offered, produced, purifies, discarded := q.Stats()
	if offered != 20 || produced != 0 {
		t.Errorf("offered=%d produced=%d", offered, produced)
	}
	if purifies == 0 || discarded != 2*purifies {
		t.Errorf("purifies=%d discarded=%d, want discarded = 2*purifies", purifies, discarded)
	}
}

func TestQueuePurifierRandomizedThroughput(t *testing.T) {
	// With real success probabilities (high-fidelity inputs, so ~0.99 per
	// round), throughput should be close to but no better than 1/8.
	q := mustQueue(t, 3)
	rng := rand.New(rand.NewSource(42))
	q.Decide = func(p float64) bool { return rng.Float64() < p }
	in := fidelity.Werner(0.995)
	const n = 8000
	for i := 0; i < n; i++ {
		q.Offer(in)
	}
	_, produced, _, _ := q.Stats()
	if produced > n/8 {
		t.Errorf("produced %d outputs from %d pairs, cannot beat 1/8", produced, n)
	}
	if produced < n/10 {
		t.Errorf("produced %d outputs from %d pairs, expected close to %d", produced, n, n/8)
	}
}

// Property: for any depth 1..6 and any number of offers, the number of
// emitted outputs with always-success is offers / 2^depth, and occupancy
// encodes the binary representation of the remainder.
func TestQueuePurifierCountingProperty(t *testing.T) {
	f := func(depthRaw, offersRaw uint8) bool {
		depth := 1 + int(depthRaw)%6
		offers := int(offersRaw)
		q, err := NewQueuePurifier(DEJMPS{base}, depth)
		if err != nil {
			return false
		}
		in := fidelity.Werner(0.999)
		emitted := 0
		for i := 0; i < offers; i++ {
			if res := q.Offer(in); res.Emitted {
				emitted++
			}
		}
		if emitted != offers/TreePairs(depth) {
			return false
		}
		rem := offers % TreePairs(depth)
		occ := 0
		for rem > 0 {
			occ += rem & 1
			rem >>= 1
		}
		return q.Occupancy() == occ
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

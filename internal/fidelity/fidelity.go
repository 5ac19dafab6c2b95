// Package fidelity implements the quantum channel fidelity models of the
// paper's Section 4: ballistic transport (Eq 1), teleportation (Eq 3),
// EPR pair generation (Eq 4), and the associated latency models
// (Eqs 2, 5, 6).  It also provides a Bell-diagonal state representation
// used by the purification recurrences in package purify.
//
// Fidelity measures the overlap between an operational quantum state and
// a reference state: 1 means the state is definitely the reference state,
// 0 means no overlap.  Error is 1 - fidelity.
package fidelity

import (
	"fmt"
	"math"

	"repro/internal/phys"
)

// ThresholdError is the maximum tolerable data-qubit error under the
// threshold theorem for fault-tolerant quantum computation as cited by
// the paper (Svore et al. 2005): fidelity must stay above 1 - 7.5e-5.
const ThresholdError = 7.5e-5

// Ballistic returns the fidelity of a qubit after ballistic movement over
// cells ion traps, starting from fidelity old (Eq 1):
//
//	F_new = F_old · (1 - pmv)^D
func Ballistic(p phys.Params, old float64, cells int) float64 {
	if cells <= 0 {
		return old
	}
	return old * math.Pow(1-p.Errors.MoveCell, float64(cells))
}

// BallisticError returns the error (1 - fidelity) accumulated by a
// perfect qubit moved over cells ion traps.
func BallisticError(p phys.Params, cells int) float64 {
	return 1 - Ballistic(p, 1, cells)
}

// Teleport returns the fidelity of a qubit after one teleportation
// (Eq 3):
//
//	F_new = 1/4 · (1 + 3(1-p1q)(1-p2q) · (4(1-pms)² - 1)/3
//	                 · (4·F_old - 1)(4·F_EPR - 1)/9)
//
// old is the fidelity of the data qubit before teleportation and epr is
// the fidelity of the EPR pair consumed by the teleportation.  With
// perfect operations and a perfect EPR pair, Teleport(old) == old.
func Teleport(p phys.Params, old, epr float64) float64 {
	gate := (1 - p.Errors.OneQubitGate) * (1 - p.Errors.TwoQubitGate)
	meas := (4*(1-p.Errors.Measure)*(1-p.Errors.Measure) - 1) / 3
	return 0.25 * (1 + 3*gate*meas*(4*old-1)*(4*epr-1)/9)
}

// TeleportChain applies Teleport hops times, each hop consuming a link
// EPR pair of fidelity epr.  This models chained teleportation along a
// path of teleporter nodes whose virtual-wire links all have the same
// quality (Section 3.1, Figure 5).
func TeleportChain(p phys.Params, old, epr float64, hops int) float64 {
	f := old
	for i := 0; i < hops; i++ {
		f = Teleport(p, f, epr)
	}
	return f
}

// Generate returns the fidelity of an EPR pair immediately after
// generation (Eq 4):
//
//	F_gen ∝ (1 - p1q)(1 - p2q) · F_zero
//
// fzero is the fidelity of the two freshly initialized zeroed qubits.
func Generate(p phys.Params, fzero float64) float64 {
	return (1 - p.Errors.OneQubitGate) * (1 - p.Errors.TwoQubitGate) * fzero
}

// GeneratePerfectInit returns Generate with perfectly initialized qubits.
func GeneratePerfectInit(p phys.Params) float64 {
	return Generate(p, 1)
}

// LinkPairFidelity is the fidelity of one half-pair-distributed EPR pair
// forming a virtual-wire link between two teleporter nodes hopCells
// apart: the pair is generated at the midpoint G node and each half is
// ballistically moved hopCells/2 cells (Figures 4/5).  Movement error
// applies to both halves, so the pair accumulates the full hopCells of
// ballistic error.
func LinkPairFidelity(p phys.Params, hopCells int) float64 {
	return Ballistic(p, GeneratePerfectInit(p), hopCells)
}

// CornerToCornerError returns the error accumulated by ballistically
// moving a qubit corner-to-corner on an n×n grid of storage cells
// (Manhattan distance 2(n-1) cells).  The paper's introduction notes that
// on a dense 1000×1000 grid this exceeds 1e-3.
func CornerToCornerError(p phys.Params, n int) float64 {
	if n < 1 {
		return 0
	}
	return BallisticError(p, 2*(n-1))
}

// Bell is a two-qubit state that is diagonal in the Bell basis,
// represented by the probabilities of the four Bell states.  A is the
// coefficient of the reference state Φ+ and therefore equals the pair's
// fidelity; B, C and D are the coefficients of Ψ−, Ψ+ and Φ−
// respectively (the ordering used by the DEJMPS analysis).
type Bell struct {
	A, B, C, D float64
}

// Fidelity returns the pair's fidelity, the Φ+ coefficient.
func (s Bell) Fidelity() float64 { return s.A }

// Error returns 1 - Fidelity.
func (s Bell) Error() float64 { return 1 - s.A }

// Sum returns the total probability mass (should be 1 for a normalized
// state).
func (s Bell) Sum() float64 { return s.A + s.B + s.C + s.D }

// Normalize rescales the coefficients to sum to 1.  It returns an error
// if the total mass is not positive.
func (s Bell) Normalize() (Bell, error) {
	t := s.Sum()
	if t <= 0 {
		return Bell{}, fmt.Errorf("fidelity: cannot normalize Bell state with mass %g", t)
	}
	return Bell{s.A / t, s.B / t, s.C / t, s.D / t}, nil
}

// Valid reports whether the state is a proper probability distribution
// over the four Bell states (all coefficients non-negative, summing to 1
// within tolerance).
func (s Bell) Valid() bool {
	if s.A < -1e-12 || s.B < -1e-12 || s.C < -1e-12 || s.D < -1e-12 {
		return false
	}
	return math.Abs(s.Sum()-1) < 1e-9
}

// Werner returns the Werner state of fidelity f: the remaining error mass
// is spread evenly over the three non-reference Bell states.  This is the
// state produced by twirling, and the form the BBPSSW protocol maintains.
func Werner(f float64) Bell {
	e := (1 - f) / 3
	return Bell{A: f, B: e, C: e, D: e}
}

// Twirl converts an arbitrary Bell-diagonal state into the Werner state
// of the same fidelity (the randomizing operation BBPSSW applies after
// every round).
func (s Bell) Twirl() Bell { return Werner(s.A) }

// Depolarize applies a two-qubit depolarizing channel of strength p to
// the pair: with probability 1-p the state is untouched, with probability
// p it is replaced by the maximally mixed Bell-diagonal state.  This is
// the standard model for a noisy two-qubit gate acting on one side of the
// pair and is how gate noise enters the purification recurrences.
func (s Bell) Depolarize(p float64) Bell {
	return Bell{
		A: (1-p)*s.A + p/4,
		B: (1-p)*s.B + p/4,
		C: (1-p)*s.C + p/4,
		D: (1-p)*s.D + p/4,
	}
}

// AfterBallistic applies per-cell movement noise to the pair over cells
// ion traps.  Movement decoherence is modeled as depolarizing with the
// accumulated error probability 1-(1-pmv)^cells, consistent with Eq 1 for
// the fidelity coefficient.
func (s Bell) AfterBallistic(p phys.Params, cells int) Bell {
	if cells <= 0 {
		return s
	}
	acc := 1 - math.Pow(1-p.Errors.MoveCell, float64(cells))
	// Rescale so the fidelity coefficient follows Eq 1 exactly:
	// F_new = F_old·(1-p_acc) + p_acc/4 would overshoot Eq 1 slightly;
	// the paper's Eq 1 has F_new = F_old·(1-pmv)^D, i.e. error mass
	// leaves A entirely.  We send the lost mass to the other Bell states
	// evenly, which keeps the state normalized and matches Eq 1 for A.
	lost := s.A * acc
	return Bell{
		A: s.A - lost,
		B: s.B + lost/3,
		C: s.C + lost/3,
		D: s.D + lost/3,
	}
}

// TeleportBell is the Bell-diagonal generalization of Eq 3: teleporting a
// pair half whose joint state with its remote partner is data, using a
// resource EPR pair in state epr.  The resource pair's Pauli error is
// composed with the data pair's error (a convolution over the Pauli
// group), and the local gates and measurements of the teleportation
// depolarize the result exactly as in Eq 3.  For Werner inputs this
// reduces to Eq 3 for the fidelity coefficient.
func TeleportBell(p phys.Params, data, epr Bell) Bell {
	// Klein four-group composition with (A,B,C,D) = (I, Y, X, Z).
	out := Bell{
		A: data.A*epr.A + data.B*epr.B + data.C*epr.C + data.D*epr.D,
		B: data.A*epr.B + data.B*epr.A + data.C*epr.D + data.D*epr.C,
		C: data.A*epr.C + data.C*epr.A + data.B*epr.D + data.D*epr.B,
		D: data.A*epr.D + data.D*epr.A + data.B*epr.C + data.C*epr.B,
	}
	gate := (1 - p.Errors.OneQubitGate) * (1 - p.Errors.TwoQubitGate)
	meas := (4*(1-p.Errors.Measure)*(1-p.Errors.Measure) - 1) / 3
	return out.Depolarize(1 - gate*meas)
}

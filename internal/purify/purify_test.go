package purify

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fidelity"
	"repro/internal/phys"
)

var base = phys.IonTrap2006()

func TestDEJMPSIdealFirstRoundFromWerner(t *testing.T) {
	// From a Werner state of F=0.99 the first DEJMPS round coincides with
	// the BBPSSW fidelity recurrence: F' ≈ 0.99326 with perfect gates.
	perfect := base.WithUniformError(0)
	out, ps := DEJMPS{perfect}.Round(fidelity.Werner(0.99), fidelity.Werner(0.99))
	if math.Abs(out.Fidelity()-0.99326) > 2e-4 {
		t.Errorf("first-round fidelity = %g, want ~0.99326", out.Fidelity())
	}
	if ps < 0.97 || ps > 1 {
		t.Errorf("success probability = %g, want ~0.987", ps)
	}
}

func TestDEJMPSQuadraticConvergence(t *testing.T) {
	// DEJMPS on non-twirled states converges near-quadratically: from
	// F=0.99 the error should fall below 1e-4 within 3 rounds (perfect
	// gates).
	perfect := base.WithUniformError(0)
	rs := Rounds(DEJMPS{perfect}, fidelity.Werner(0.99), 3)
	if len(rs) != 3 {
		t.Fatalf("expected 3 rounds, got %d", len(rs))
	}
	if e := rs[2].State.Error(); e > 1e-4 {
		t.Errorf("error after 3 DEJMPS rounds = %g, want < 1e-4", e)
	}
}

func TestBBPSSWSlowConvergence(t *testing.T) {
	// BBPSSW twirls each round; from F=0.99 the error shrinks by roughly
	// a constant factor per round, needing ~20+ rounds to reach 1e-5.
	perfect := base.WithUniformError(0)
	rounds, _, _, ok := RoundsToReach(BBPSSW{perfect}, fidelity.Werner(0.99), 1e-5, 60)
	if !ok {
		t.Fatal("BBPSSW should eventually reach 1e-5 with perfect gates")
	}
	if rounds < 10 {
		t.Errorf("BBPSSW reached 1e-5 in %d rounds, expected slow (>=10) convergence", rounds)
	}
}

func TestDEJMPSBeatsBBPSSWConvergence(t *testing.T) {
	// Paper §4.5 / Figure 8: "The BBPSSW protocol takes 5-10 times more
	// rounds to converge to its maximum value as the DEJMPS protocol."
	for _, f0 := range []float64{0.99, 0.999, 0.9999} {
		init := fidelity.Werner(f0)
		d := ConvergenceRounds(DEJMPS{base}, init, 1e-7, 100)
		b := ConvergenceRounds(BBPSSW{base}, init, 1e-7, 100)
		if d <= 0 || b <= 0 {
			t.Fatalf("f0=%g: convergence failed (d=%d b=%d)", f0, d, b)
		}
		if ratio := float64(b) / float64(d); ratio < 3 {
			t.Errorf("f0=%g: BBPSSW/DEJMPS round ratio = %.1f (b=%d d=%d), want >= 3", f0, ratio, b, d)
		}
	}
}

func TestDEJMPSHigherMaxFidelity(t *testing.T) {
	// Paper: "DEJMPS has higher maximum fidelity ... than BBPSSW."
	// Use an error rate large enough for the floors to separate clearly.
	noisy := base.WithUniformError(1e-4)
	init := fidelity.Werner(0.99)
	d := MaxFidelity(DEJMPS{noisy}, init)
	b := MaxFidelity(BBPSSW{noisy}, init)
	if d <= b {
		t.Errorf("DEJMPS max fidelity %g should exceed BBPSSW %g", d, b)
	}
}

func TestNoiseFloorScalesWithGateError(t *testing.T) {
	init := fidelity.Werner(0.99)
	f5 := MaxFidelity(DEJMPS{base.WithUniformError(1e-5)}, init)
	f4 := MaxFidelity(DEJMPS{base.WithUniformError(1e-4)}, init)
	if f4 >= f5 {
		t.Errorf("higher gate error must lower max fidelity: %g >= %g", f4, f5)
	}
	// Floor error should be the same order as the gate error.
	if e := 1 - f5; e < 1e-6 || e > 1e-4 {
		t.Errorf("noise floor at p=1e-5 is %g, want O(1e-5)", e)
	}
}

func TestBreakdownNearThreshold(t *testing.T) {
	// Paper Figure 12: the distribution network breaks down near uniform
	// error 1e-5 because purification can no longer reach the 7.5e-5
	// threshold.  The achievable fidelity must be above threshold at
	// 1e-6 and below it by 1e-4.
	init := fidelity.Werner(0.99)
	threshold := 1 - fidelity.ThresholdError
	if f := MaxFidelity(DEJMPS{base.WithUniformError(1e-6)}, init); f < threshold {
		t.Errorf("at p=1e-6 max fidelity %g should exceed threshold %g", f, threshold)
	}
	if f := MaxFidelity(DEJMPS{base.WithUniformError(1e-4)}, init); f >= threshold {
		t.Errorf("at p=1e-4 max fidelity %g should be below threshold %g", f, threshold)
	}
}

func TestRoundsToReachAlreadyThere(t *testing.T) {
	r, final, pairs, ok := RoundsToReach(DEJMPS{base}, fidelity.Werner(1-1e-9), 1e-5, 10)
	if !ok || r != 0 || pairs != 1 {
		t.Errorf("already-pure input: rounds=%d pairs=%g ok=%v", r, pairs, ok)
	}
	if final.Fidelity() != 1-1e-9 {
		t.Errorf("state should be untouched, got %g", final.Fidelity())
	}
}

func TestRoundsToReachUnreachable(t *testing.T) {
	// With a huge error rate the protocol floor is far above 1e-9.
	noisy := base.WithUniformError(1e-3)
	_, _, _, ok := RoundsToReach(DEJMPS{noisy}, fidelity.Werner(0.99), 1e-9, 50)
	if ok {
		t.Error("target below the noise floor should be unreachable")
	}
}

func TestExpectedPairsGrowExponentially(t *testing.T) {
	rs := Rounds(DEJMPS{base}, fidelity.Werner(0.99), 5)
	for i, r := range rs {
		if min := float64(TreePairs(i + 1)); r.ExpectedPairs < min {
			t.Errorf("round %d: expected pairs %g < noiseless tree %g", r.Round, r.ExpectedPairs, min)
		}
	}
	// And not absurdly more for high-fidelity inputs (success prob near 1).
	if rs[2].ExpectedPairs > 10 {
		t.Errorf("3 rounds from F=0.99 should cost ~8 pairs, got %g", rs[2].ExpectedPairs)
	}
}

func TestFig8Series(t *testing.T) {
	pts := Fig8Series(base, []float64{0.99, 0.999, 0.9999}, 25)
	// 2 protocols × 3 fidelities × (25 rounds + round 0)
	if want := 2 * 3 * 26; len(pts) != want {
		t.Fatalf("series has %d points, want %d", len(pts), want)
	}
	// Error must be non-increasing for every curve.
	byCurve := map[[2]string][]Fig8Point{}
	for _, pt := range pts {
		key := [2]string{pt.Protocol, fmtF(pt.InitialFidelity)}
		byCurve[key] = append(byCurve[key], pt)
	}
	for key, curve := range byCurve {
		for i := 1; i < len(curve); i++ {
			if curve[i].Error > curve[i-1].Error*(1+1e-9) {
				t.Errorf("%v: error increased at round %d: %g -> %g",
					key, curve[i].Round, curve[i-1].Error, curve[i].Error)
			}
		}
		// Every curve must end well below its starting error.
		last := curve[len(curve)-1]
		if last.Error > curve[0].Error/10 {
			t.Errorf("%v: final error %g did not improve 10x over initial %g", key, last.Error, curve[0].Error)
		}
	}
}

func fmtF(f float64) string {
	switch f {
	case 0.99:
		return "0.99"
	case 0.999:
		return "0.999"
	default:
		return "0.9999"
	}
}

func TestTreePairs(t *testing.T) {
	cases := map[int]int{0: 1, 1: 2, 3: 8, 10: 1024}
	for depth, want := range cases {
		if got := TreePairs(depth); got != want {
			t.Errorf("TreePairs(%d) = %d, want %d", depth, got, want)
		}
	}
	if got := TreePairs(-1); got != 0 {
		t.Errorf("TreePairs(-1) = %d, want 0", got)
	}
}

// Property: both protocols keep states valid and never report success
// probability outside [0, 1].
func TestProtocolValidityProperty(t *testing.T) {
	protos := []Protocol{DEJMPS{base}, BBPSSW{base}}
	f := func(a1, b1, c1, d1, a2, b2, c2, d2 uint16) bool {
		s1, err1 := (fidelity.Bell{A: float64(a1) + 1, B: float64(b1), C: float64(c1), D: float64(d1)}).Normalize()
		s2, err2 := (fidelity.Bell{A: float64(a2) + 1, B: float64(b2), C: float64(c2), D: float64(d2)}).Normalize()
		if err1 != nil || err2 != nil {
			return true
		}
		for _, p := range protos {
			out, ps := p.Round(s1, s2)
			if ps < 0 || ps > 1+1e-12 {
				return false
			}
			if ps > 0 && !out.Valid() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: purifying two copies of a decent Werner state never lowers
// fidelity below the input for fidelities in the purifiable regime
// (F > 0.6 comfortably above the 0.5 purification threshold).
func TestPurificationGainProperty(t *testing.T) {
	f := func(x uint8) bool {
		f0 := 0.6 + 0.399*float64(x)/255
		in := fidelity.Werner(f0)
		out, ps := DEJMPS{base}.Round(in, in)
		if ps <= 0 {
			return false
		}
		return out.Fidelity() >= in.Fidelity()-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

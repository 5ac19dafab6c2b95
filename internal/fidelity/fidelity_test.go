package fidelity

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/phys"
)

var base = phys.IonTrap2006()

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBallisticSingleCell(t *testing.T) {
	got := Ballistic(base, 1, 1)
	want := 1 - 1e-6
	if !almost(got, want, 1e-12) {
		t.Errorf("Ballistic(1 cell) = %g, want %g", got, want)
	}
}

func TestBallisticZeroAndNegative(t *testing.T) {
	if got := Ballistic(base, 0.9, 0); got != 0.9 {
		t.Errorf("zero cells must not change fidelity, got %g", got)
	}
	if got := Ballistic(base, 0.9, -3); got != 0.9 {
		t.Errorf("negative cells must not change fidelity, got %g", got)
	}
}

func TestCornerToCornerErrorClaim(t *testing.T) {
	// Paper §1: on a 1000×1000 grid a qubit "would experience a
	// probability of error of more than 1e-3 in traveling from corner to
	// corner."
	e := CornerToCornerError(base, 1000)
	if e <= 1e-3 {
		t.Errorf("corner-to-corner error on 1000x1000 grid = %g, want > 1e-3", e)
	}
	if e > 3e-3 {
		t.Errorf("corner-to-corner error = %g, implausibly large (want ~2e-3)", e)
	}
}

func TestCornerToCornerDegenerate(t *testing.T) {
	if got := CornerToCornerError(base, 1); got != 0 {
		t.Errorf("1x1 grid should have zero movement error, got %g", got)
	}
	if got := CornerToCornerError(base, 0); got != 0 {
		t.Errorf("0x0 grid should have zero movement error, got %g", got)
	}
}

func TestTeleportIdentityUnderPerfectOps(t *testing.T) {
	perfect := base.WithUniformError(0)
	for _, f := range []float64{1, 0.999, 0.9, 0.5, 0.25} {
		got := Teleport(perfect, f, 1)
		if !almost(got, f, 1e-12) {
			t.Errorf("perfect teleport of F=%g gave %g", f, got)
		}
	}
}

func TestTeleportFullyMixedEPR(t *testing.T) {
	// A fully mixed EPR pair (F=1/4) carries no entanglement: output must
	// be fully mixed regardless of input.
	perfect := base.WithUniformError(0)
	got := Teleport(perfect, 1, 0.25)
	if !almost(got, 0.25, 1e-12) {
		t.Errorf("teleport with F_EPR=1/4 gave %g, want 0.25", got)
	}
}

func TestTeleportDegradesWithEPRError(t *testing.T) {
	f1 := Teleport(base, 1, 1)
	f2 := Teleport(base, 1, 1-1e-4)
	if f2 >= f1 {
		t.Errorf("lower EPR fidelity must lower output fidelity: %g >= %g", f2, f1)
	}
	// For small errors, output error ≈ data error + (4/3)·EPR error-ish;
	// at least it must exceed the EPR error alone.
	if (1 - f2) < 1e-4 {
		t.Errorf("output error %g should be >= EPR error 1e-4", 1-f2)
	}
}

func TestTeleportChainLinearErrorGrowth(t *testing.T) {
	// With small errors, error after n hops ≈ n × per-hop error.
	epr := 1 - 1e-6
	f10 := TeleportChain(base, 1, epr, 10)
	f20 := TeleportChain(base, 1, epr, 20)
	e10, e20 := 1-f10, 1-f20
	if ratio := e20 / e10; ratio < 1.9 || ratio > 2.1 {
		t.Errorf("error growth should be ~linear: e20/e10 = %g, want ~2", ratio)
	}
}

func TestTeleportChainZeroHops(t *testing.T) {
	if got := TeleportChain(base, 0.87, 0.99, 0); got != 0.87 {
		t.Errorf("0 hops must be identity, got %g", got)
	}
}

func TestFig9Factor100At64Hops(t *testing.T) {
	// Paper §4.6: "teleporting 64 times could increase EPR pair qubit
	// error by a factor of 100" (Figure 9).  With initial error 1e-6 and
	// link pairs of the same quality, the error after 64 hops should be
	// roughly two orders of magnitude above the initial error.
	init := 1e-6
	f := TeleportChain(base, 1-init, 1-init, 64)
	factor := (1 - f) / init
	if factor < 50 || factor > 200 {
		t.Errorf("64-hop error amplification = %gx, want ~100x", factor)
	}
}

func TestGenerate(t *testing.T) {
	got := Generate(base, 1)
	want := (1 - 1e-8) * (1 - 1e-7)
	if !almost(got, want, 1e-15) {
		t.Errorf("Generate = %g, want %g", got, want)
	}
	if g := Generate(base, 0.5); !almost(g, want*0.5, 1e-15) {
		t.Errorf("Generate with F_zero=0.5 = %g, want %g", g, want*0.5)
	}
}

func TestLinkPairFidelity(t *testing.T) {
	// A 600-cell hop accumulates ~6e-4 of movement error on the pair.
	f := LinkPairFidelity(base, 600)
	e := 1 - f
	if e < 5e-4 || e > 7e-4 {
		t.Errorf("600-cell link pair error = %g, want ~6e-4", e)
	}
}

func TestThresholdConstant(t *testing.T) {
	if ThresholdError != 7.5e-5 {
		t.Errorf("ThresholdError = %g, want 7.5e-5", ThresholdError)
	}
}

func TestWernerState(t *testing.T) {
	s := Werner(0.97)
	if !s.Valid() {
		t.Fatalf("Werner(0.97) invalid: %+v", s)
	}
	if s.Fidelity() != 0.97 {
		t.Errorf("fidelity = %g, want 0.97", s.Fidelity())
	}
	if !almost(s.B, 0.01, 1e-12) || !almost(s.C, 0.01, 1e-12) || !almost(s.D, 0.01, 1e-12) {
		t.Errorf("Werner error mass not even: %+v", s)
	}
}

func TestBellNormalize(t *testing.T) {
	s := Bell{A: 2, B: 1, C: 1, D: 0}
	n, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !n.Valid() {
		t.Errorf("normalized state invalid: %+v", n)
	}
	if !almost(n.A, 0.5, 1e-12) {
		t.Errorf("normalized A = %g, want 0.5", n.A)
	}
	if _, err := (Bell{}).Normalize(); err == nil {
		t.Error("normalizing the zero state should error")
	}
}

func TestTwirlPreservesFidelity(t *testing.T) {
	s := Bell{A: 0.9, B: 0.08, C: 0.02, D: 0}
	w := s.Twirl()
	if w.A != s.A {
		t.Errorf("twirl changed fidelity: %g -> %g", s.A, w.A)
	}
	if !w.Valid() {
		t.Errorf("twirled state invalid: %+v", w)
	}
	if w.B != w.C || w.C != w.D {
		t.Errorf("twirled state not Werner: %+v", w)
	}
}

func TestDepolarizePreservesMassAndShrinksToMixed(t *testing.T) {
	s := Werner(1)
	d := s.Depolarize(0.1)
	if !d.Valid() {
		t.Fatalf("depolarized state invalid: %+v", d)
	}
	if !almost(d.A, 0.9*1+0.1/4, 1e-12) {
		t.Errorf("depolarized A = %g", d.A)
	}
	full := s.Depolarize(1)
	if !almost(full.A, 0.25, 1e-12) || !almost(full.D, 0.25, 1e-12) {
		t.Errorf("fully depolarized state should be maximally mixed: %+v", full)
	}
}

func TestAfterBallisticMatchesEq1(t *testing.T) {
	s := Werner(0.999)
	moved := s.AfterBallistic(base, 600)
	if !moved.Valid() {
		t.Fatalf("moved state invalid: %+v", moved)
	}
	want := Ballistic(base, 0.999, 600)
	if !almost(moved.A, want, 1e-12) {
		t.Errorf("AfterBallistic fidelity = %g, want Eq 1 value %g", moved.A, want)
	}
}

func TestAfterBallisticZeroCells(t *testing.T) {
	s := Werner(0.9)
	if got := s.AfterBallistic(base, 0); got != s {
		t.Errorf("0 cells changed state: %+v", got)
	}
}

// Property: teleport output fidelity is monotone in both input fidelities
// over the physical range [1/4, 1].
func TestTeleportMonotoneProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		// Map to [0.25, 1].
		lift := func(x uint8) float64 { return 0.25 + 0.75*float64(x)/255 }
		fOld, fEPR1, fEPR2 := lift(a), lift(b), lift(c)
		lo, hi := math.Min(fEPR1, fEPR2), math.Max(fEPR1, fEPR2)
		return Teleport(base, fOld, lo) <= Teleport(base, fOld, hi)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Bell state operations keep states valid.
func TestBellOperationsValidProperty(t *testing.T) {
	f := func(a, b, c, d uint16, p uint8, cells uint8) bool {
		s := Bell{float64(a) + 1, float64(b), float64(c), float64(d)}
		n, err := s.Normalize()
		if err != nil || !n.Valid() {
			return false
		}
		if !n.Twirl().Valid() {
			return false
		}
		if !n.Depolarize(float64(p) / 255).Valid() {
			return false
		}
		if !n.AfterBallistic(base, int(cells)).Valid() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ballistic fidelity decreases monotonically with distance.
func TestBallisticMonotoneProperty(t *testing.T) {
	f := func(d1, d2 uint16) bool {
		lo, hi := int(d1), int(d2)
		if lo > hi {
			lo, hi = hi, lo
		}
		return Ballistic(base, 1, hi) <= Ballistic(base, 1, lo)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package channel

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fidelity"

	"repro/qnet"
)

func TestPlanMoveBasics(t *testing.T) {
	plan, err := PlanMove(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cells() != 6 {
		t.Errorf("cells = %d, want 6", plan.Cells())
	}
	if want := 6 * phasesPerCell; len(plan.Steps) != want {
		t.Errorf("steps = %d, want %d", len(plan.Steps), want)
	}
	if plan.Signals() <= 0 {
		t.Error("plan should issue signals")
	}
	// Phases must be consecutively numbered.
	for i, s := range plan.Steps {
		if s.Phase != i {
			t.Fatalf("step %d has phase %d", i, s.Phase)
		}
	}
}

func TestPlanMoveBackward(t *testing.T) {
	fwd, err := PlanMove(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	back, err := PlanMove(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fwd.Cells() != back.Cells() || fwd.Signals() != back.Signals() {
		t.Error("forward and backward moves should cost the same")
	}
}

func TestPlanMoveDegenerateAndInvalid(t *testing.T) {
	plan, err := PlanMove(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 0 || plan.Signals() != 0 {
		t.Error("zero-distance move should be free")
	}
	if _, err := PlanMove(-1, 3); err == nil {
		t.Error("negative trap index should fail")
	}
}

func TestPlanMoveDurationAndFidelity(t *testing.T) {
	plan, _ := PlanMove(0, 600)
	if got, want := plan.Duration(base), 120*time.Microsecond; got != want {
		t.Errorf("duration = %v, want %v", got, want)
	}
	e := 1 - plan.Fidelity(base)
	if e < 5e-4 || e > 7e-4 {
		t.Errorf("600-cell move error = %g, want ~6e-4", e)
	}
}

// Property: signals scale linearly with distance, touching only local
// electrodes each phase.
func TestPlanMoveLinearSignalsProperty(t *testing.T) {
	f := func(aRaw, bRaw uint8) bool {
		a, b := int(aRaw), int(bRaw)
		plan, err := PlanMove(a, b)
		if err != nil {
			return false
		}
		if plan.Signals() != plan.Cells()*2*phasesPerCell {
			return false
		}
		for _, s := range plan.Steps {
			if len(s.Levels) > electrodesPerTrap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributionBaseline(t *testing.T) {
	// A 16x16-grid diameter worth of distance: 30 hops x 600 cells.
	d := BallisticDistribution{Params: base, DistanceCells: 18000}
	res, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("baseline ballistic distribution should be feasible")
	}
	if res.FinalError > 7.5e-5 {
		t.Errorf("final error %g above threshold", res.FinalError)
	}
	// 18000 cells of movement error ~ 1.8e-2 arrival error.
	if res.ArrivalError < 1e-2 || res.ArrivalError > 3e-2 {
		t.Errorf("arrival error = %g, want ~1.8e-2", res.ArrivalError)
	}
	if res.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", res.Rounds)
	}
	if res.ControlSignals <= 0 {
		t.Error("shuttling must cost control signals")
	}
}

func TestDistributionValidation(t *testing.T) {
	if _, err := (BallisticDistribution{Params: base, DistanceCells: 1}).Evaluate(); err == nil {
		t.Error("distance 1 should fail")
	}
	bad := base
	bad.Errors.MoveCell = -1
	if _, err := (BallisticDistribution{Params: bad, DistanceCells: 100}).Evaluate(); err == nil {
		t.Error("invalid params should fail")
	}
}

// TestBallisticDistributionRejectsInvalidInputs: an error target
// outside [0, 1) or a negative round cap is a *qnet.ConfigError naming
// the field, not an answer; zero values select the documented defaults.
func TestBallisticDistributionRejectsInvalidInputs(t *testing.T) {
	for _, tc := range []struct {
		field string
		d     BallisticDistribution
	}{
		{"TargetError", BallisticDistribution{TargetError: -1}},
		{"TargetError", BallisticDistribution{TargetError: 1}},
		{"TargetError", BallisticDistribution{TargetError: 1.5}},
		{"TargetError", BallisticDistribution{TargetError: math.NaN()}},
		{"MaxRounds", BallisticDistribution{MaxRounds: -3}},
	} {
		tc.d.Params, tc.d.DistanceCells = base, 1200
		res, err := tc.d.Evaluate()
		var ce *qnet.ConfigError
		if !errors.Is(err, qnet.ErrInvalidConfig) || !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("Evaluate with TargetError %v, MaxRounds %d returned %+v, %v; want a *qnet.ConfigError on %s",
				tc.d.TargetError, tc.d.MaxRounds, res, err, tc.field)
		}
	}

	zero, err := BallisticDistribution{Params: base, DistanceCells: 1200}.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := BallisticDistribution{Params: base, DistanceCells: 1200,
		TargetError: fidelity.ThresholdError, MaxRounds: 40}.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if zero != explicit {
		t.Errorf("zero-valued distribution evaluates %+v, explicit defaults %+v", zero, explicit)
	}
}

func TestDistributionInfeasibleAtHighError(t *testing.T) {
	d := BallisticDistribution{Params: base.WithUniformError(1e-3), DistanceCells: 1200}
	res, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("distribution at 1e-3 uniform error should be infeasible")
	}
}

func TestFidelityDifferenceClaim(t *testing.T) {
	// Paper §4.6: "The final fidelity of these two techniques is
	// approximately the same" because gate error is far below movement
	// error.  Check within 2x over a range of distances.
	for _, cells := range []int{600, 3000, 12000, 36000} {
		c, err := CompareMethodologies(base, cells, 600)
		if err != nil {
			t.Fatal(err)
		}
		ratio := c.ChainedPairError / c.BallisticPairError
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%d cells: chained/ballistic pair error = %.2f, want ~1", cells, ratio)
		}
	}
}

func TestLatencyCrossoverClaim(t *testing.T) {
	// Paper §4.6: ballistic wins below ~600 cells, teleportation above.
	short, err := CompareMethodologies(base, 300, 600)
	if err != nil {
		t.Fatal(err)
	}
	if short.BallisticLatency >= short.TeleportLatency {
		t.Errorf("at 300 cells ballistic %v should beat teleport %v",
			short.BallisticLatency, short.TeleportLatency)
	}
	long, err := CompareMethodologies(base, 6000, 600)
	if err != nil {
		t.Fatal(err)
	}
	if long.TeleportLatency >= long.BallisticLatency {
		t.Errorf("at 6000 cells teleport %v should beat ballistic %v",
			long.TeleportLatency, long.BallisticLatency)
	}
}

func TestCompareValidation(t *testing.T) {
	if _, err := CompareMethodologies(base, 0, 600); err == nil {
		t.Error("zero distance should fail")
	}
	if _, err := CompareMethodologies(base, 600, 0); err == nil {
		t.Error("zero hop length should fail")
	}
}

func TestLevelString(t *testing.T) {
	if low.String() != "low" || mid.String() != "mid" || high.String() != "high" {
		t.Error("level names wrong")
	}
	if driveLevel(9).String() != "Level(9)" {
		t.Error("unknown level rendering wrong")
	}
}

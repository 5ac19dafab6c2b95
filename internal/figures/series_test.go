package figures

import (
	"math"
	"testing"

	"repro/qnet/channel"
)

func TestFig9Series(t *testing.T) {
	initial := []float64{1e-4, 1e-5, 1e-6, 1e-7, 1e-8}
	pts := Fig9Series(base, initial, 70)
	if want := 5 * 71; len(pts) != want {
		t.Fatalf("series has %d points, want %d", len(pts), want)
	}
	// Error increases monotonically with hops for each curve.
	for _, e0 := range initial {
		var prev float64 = -1
		for _, p := range pts {
			if p.InitialError != e0 {
				continue
			}
			if p.Error < prev {
				t.Errorf("e0=%g: error decreased at hop %d", e0, p.Hops)
			}
			prev = p.Error
		}
	}
}

func TestFig9Factor100At64Hops(t *testing.T) {
	// Paper §4.6: "teleporting 64 times could increase EPR pair qubit
	// error by a factor of 100."
	pts := Fig9Series(base, []float64{1e-6}, 64)
	last := pts[len(pts)-1]
	factor := last.Error / 1e-6
	if factor < 50 || factor > 200 {
		t.Errorf("64-hop amplification = %gx, want ~100x", factor)
	}
}

func TestDistanceSeriesShape(t *testing.T) {
	c := channel.DefaultDistribution(base)
	hops := []int{10, 20, 30}
	pts := DistanceSeries(c, hops)
	if want := len(channel.Schemes) * len(hops); len(pts) != want {
		t.Fatalf("series has %d points, want %d", len(pts), want)
	}
	for _, p := range pts {
		if p.Cost.Scheme != p.Scheme || p.Cost.Hops != p.Hops {
			t.Errorf("point metadata mismatch: %+v", p)
		}
	}
}

func TestFig12BreakdownNearPaperValue(t *testing.T) {
	// Paper: "the abrupt ends of all the plots near 1e-5.  This is the
	// point at which our whole distribution network breaks down."  Our
	// noise model places the breakdown in the same decade.
	rate := BreakdownRate(base, 10, 1e-7, 1e-3)
	if rate < 5e-6 || rate > 8e-5 {
		t.Errorf("breakdown rate = %g, want within [5e-6, 8e-5] (paper: near 1e-5)", rate)
	}
}

func TestFig12SeriesInfeasibleMarked(t *testing.T) {
	pts := Fig12Series(base, []float64{1e-8, 1e-4}, 10)
	for _, p := range pts {
		switch p.ErrorRate {
		case 1e-8:
			if !p.Cost.Feasible {
				t.Errorf("%v at 1e-8 should be feasible", p.Scheme)
			}
		case 1e-4:
			if p.Cost.Feasible {
				t.Errorf("%v at 1e-4 should be infeasible", p.Scheme)
			}
			if !math.IsInf(p.Cost.TotalPairs, 1) {
				t.Errorf("%v at 1e-4 should report infinite cost", p.Scheme)
			}
		}
	}
}

package main

import (
	"math"
	"testing"
)

// The expected values are what Python's statistics.quantiles(xs, n=4)
// and statistics.median return.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2.0, 2.1, 2.05, 2.3, 1.9, 2.2, 2.0, 2.4, 2.15, 2.02}, 2.0, 2.075, 2.225},
	} {
		q1, med, q3 := quartiles(tc.xs)
		for _, got := range []struct {
			name      string
			got, want float64
		}{
			{"q1", q1, tc.q1}, {"median", med, tc.med}, {"q3", q3, tc.q3},
		} {
			if math.Abs(got.got-got.want) > 1e-12 {
				t.Errorf("quartiles(%v) %s = %v, want %v", tc.xs, got.name, got.got, got.want)
			}
		}
	}
	if q1, med, q3 := quartiles(nil); !math.IsNaN(q1) || !math.IsNaN(med) || !math.IsNaN(q3) {
		t.Errorf("quartiles(nil) = %v %v %v, want NaNs", q1, med, q3)
	}
}

func TestQuartilesLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	quartiles(xs)
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered to %v", xs)
	}
}

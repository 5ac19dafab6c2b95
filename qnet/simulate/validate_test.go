package simulate

import (
	"errors"
	"strings"
	"testing"

	"repro/qnet"
	"repro/qnet/fault"
)

// TestValidateNamesEveryField audits the build-time validation layer:
// every rejectable configuration field must fail with a
// *qnet.ConfigError that (a) names exactly that field, (b) carries the
// offending value into the message, and (c) unwraps to
// ErrInvalidConfig.  The table covers every field
// netsim.Config.Validate checks, so a new Config field with sloppy (or
// missing) validation breaks this test, not a user.
func TestValidateNamesEveryField(t *testing.T) {
	grid, err := qnet.NewGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		field string
		grid  qnet.Grid
		opts  []Option
	}{
		{"Params", grid, []Option{WithParams(qnet.Params{})}},
		{"Grid", qnet.Grid{}, nil},
		{"Teleporters", grid, []Option{WithResources(0, 4, 2)}},
		{"Generators", grid, []Option{WithResources(4, 0, 2)}},
		{"Purifiers", grid, []Option{WithResources(4, 4, 0)}},
		{"PurifyDepth", grid, []Option{WithPurifyDepth(0)}},
		{"PurifyDepth", grid, []Option{WithPurifyDepth(17)}},
		{"CodeLevel", grid, []Option{WithCodeLevel(-1)}},
		{"HopCells", grid, []Option{WithHopCells(0)}},
		{"TurnCells", grid, []Option{WithTurnCells(-1)}},
		{"FailureRate", grid, []Option{WithFailureRate(-0.1)}},
		{"FailureRate", grid, []Option{WithFailureRate(1)}},
		{"Faults", grid, []Option{WithFaults(fault.Spec{DeadLinks: 2})}},
		{"Faults", grid, []Option{WithFaults(fault.Spec{Drop: 1})}},
		{"Faults", grid, []Option{WithFaults(fault.Spec{
			Regions: []fault.Region{{X: 3, Y: 3, W: 4, H: 4, Drop: 0.1}}})}},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			_, err := New(tc.grid, HomeBase, tc.opts...)
			if err == nil {
				t.Fatalf("New accepted invalid %s", tc.field)
			}
			var cerr *qnet.ConfigError
			if !errors.As(err, &cerr) {
				t.Fatalf("got %v (%T), want *qnet.ConfigError", err, err)
			}
			if cerr.Field != tc.field {
				t.Fatalf("error names field %q, want %q: %v", cerr.Field, tc.field, err)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("message %q does not mention the field %q", err, tc.field)
			}
			if !errors.Is(err, qnet.ErrInvalidConfig) {
				t.Fatal("validation error must unwrap to ErrInvalidConfig")
			}
		})
	}

	// Layout is the one field not reachable through an Option; exercise
	// it directly with an out-of-range layout value.
	_, err = New(grid, Layout(99))
	var cerr *qnet.ConfigError
	if !errors.As(err, &cerr) || cerr.Field != "Layout" {
		t.Fatalf("bad layout: got %v, want ConfigError{Field: Layout}", err)
	}

	// And the happy path: the most heavily optioned valid machine
	// builds cleanly, so the table above is rejecting values, not
	// option plumbing.
	if _, err := New(grid, MobileQubit,
		WithResources(4, 4, 2), WithPurifyDepth(16), WithCodeLevel(0),
		WithHopCells(1), WithTurnCells(0), WithFailureRate(0.99),
		WithFaults(fault.Spec{DeadLinks: 1, Drop: 0.9,
			Regions: []fault.Region{{X: 0, Y: 0, W: 4, H: 4, Drop: 0.9}}}),
	); err != nil {
		t.Fatalf("boundary-valid machine rejected: %v", err)
	}
}

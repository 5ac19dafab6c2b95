package netsim

import (
	"errors"
	"testing"

	"repro/internal/mesh"
	"repro/internal/phys"

	"repro/qnet"
	"repro/qnet/fault"
)

// validConfig returns a minimal config that passes Validate, for the
// boundary table to perturb one field at a time.
func validConfig(t *testing.T) Config {
	t.Helper()
	g, err := mesh.NewGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Params:      phys.IonTrap2006(),
		Grid:        g,
		Layout:      HomeBase,
		Teleporters: 4, Generators: 4, Purifiers: 2,
		PurifyDepth: 3, CodeLevel: 2, HopCells: 600,
	}
}

// TestValidateBoundsMatchMessages audits every Validate clause: the
// boundary value each rule names must be accepted on its legal side and
// rejected on its illegal side with a *qnet.ConfigError naming the
// offending field.  A drifted bound or a misattributed field breaks
// here.
func TestValidateBoundsMatchMessages(t *testing.T) {
	cases := []struct {
		name    string
		field   string // ConfigError.Field the rejection must carry
		legal   func(*Config)
		illegal func(*Config)
	}{
		{"layout in range", "Layout",
			func(c *Config) { c.Layout = MobileQubit },
			func(c *Config) { c.Layout = MobileQubit + 1 }},
		{"teleporters >= 1", "Teleporters",
			func(c *Config) { c.Teleporters = 1 },
			func(c *Config) { c.Teleporters = 0 }},
		{"generators >= 1", "Generators",
			func(c *Config) { c.Generators = 1 },
			func(c *Config) { c.Generators = 0 }},
		{"purifiers >= 1", "Purifiers",
			func(c *Config) { c.Purifiers = 1 },
			func(c *Config) { c.Purifiers = 0 }},
		{"purify depth lower bound", "PurifyDepth",
			func(c *Config) { c.PurifyDepth = 1 },
			func(c *Config) { c.PurifyDepth = 0 }},
		{"purify depth upper bound", "PurifyDepth",
			func(c *Config) { c.PurifyDepth = 16 },
			func(c *Config) { c.PurifyDepth = 17 }},
		{"code level >= 0", "CodeLevel",
			func(c *Config) { c.CodeLevel = 0 },
			func(c *Config) { c.CodeLevel = -1 }},
		{"hop cells >= 1", "HopCells",
			func(c *Config) { c.HopCells = 1 },
			func(c *Config) { c.HopCells = 0 }},
		{"turn cells >= 0", "TurnCells",
			func(c *Config) { c.TurnCells = 0 },
			func(c *Config) { c.TurnCells = -1 }},
		// The reason says [0,1): rate 0 is legal, rate 1 is not —
		// exactly what the half-open interval claims.
		{"failure rate lower bound", "FailureRate",
			func(c *Config) { c.PurifyFailureRate = 0 },
			func(c *Config) { c.PurifyFailureRate = -0.001 }},
		{"failure rate upper bound", "FailureRate",
			func(c *Config) { c.PurifyFailureRate = 0.999 },
			func(c *Config) { c.PurifyFailureRate = 1 }},
		// Faults.Validate says DeadLinks lives in the closed [0,1].
		{"dead links upper bound", "Faults",
			func(c *Config) { c.Faults = fault.Spec{DeadLinks: 1} },
			func(c *Config) { c.Faults = fault.Spec{DeadLinks: 1.001} }},
		// And Drop in the half-open [0,1): a permanent 100% drop is a
		// dead link, not a drop rate.
		{"drop upper bound", "Faults",
			func(c *Config) { c.Faults = fault.Spec{Drop: 0.999} },
			func(c *Config) { c.Faults = fault.Spec{Drop: 1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			legal := validConfig(t)
			tc.legal(&legal)
			if err := legal.Validate(); err != nil {
				t.Fatalf("boundary-legal config rejected: %v", err)
			}
			illegal := validConfig(t)
			tc.illegal(&illegal)
			err := illegal.Validate()
			if err == nil {
				t.Fatal("boundary-illegal config accepted")
			}
			var cerr *qnet.ConfigError
			if !errors.As(err, &cerr) || cerr.Field != tc.field {
				t.Fatalf("rejection %v does not name field %q", err, tc.field)
			}
		})
	}
}

package channel

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/netsim"
	"repro/internal/phys"
	"repro/internal/workload"

	"repro/qnet"
)

var base = phys.IonTrap2006()

func TestPlanBaselineChannel(t *testing.T) {
	ch, err := Plan(Spec{Params: base, Hops: 30})
	if err != nil {
		t.Fatal(err)
	}
	if ch.ErrorRate > 7.5e-5 {
		t.Errorf("error rate %g exceeds threshold", ch.ErrorRate)
	}
	if ch.EndpointRounds != 3 {
		t.Errorf("endpoint rounds = %d, want 3", ch.EndpointRounds)
	}
	// Paper §5.3: 392 pairs for the longest communication path.
	if ch.PairsPerLogical != 392 {
		t.Errorf("pairs per logical = %d, want 392", ch.PairsPerLogical)
	}
	if ch.SetupLatency <= 0 || ch.DataLatency <= 0 {
		t.Error("latencies must be positive")
	}
	if ch.Bandwidth <= 0 {
		t.Error("bandwidth must be positive")
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := Plan(Spec{Params: base, Hops: 0}); err == nil {
		t.Error("zero hops should fail")
	}
	bad := base
	bad.Errors.MoveCell = -1
	if _, err := Plan(Spec{Params: bad, Hops: 5}); err == nil {
		t.Error("invalid params should fail")
	}
	// Unreachable threshold: huge error rates.
	if _, err := Plan(Spec{Params: base.WithUniformError(1e-3), Hops: 5}); err == nil {
		t.Error("infeasible channel should fail")
	}
}

// TestPlanRejectsInvalidSpec: a negative resource count, hop or turn
// span or code level, or an abstract path under one hop, is a
// *qnet.ConfigError naming the field, not a plan with a negative
// bandwidth; zero values still select the documented defaults.
func TestPlanRejectsInvalidSpec(t *testing.T) {
	for _, tc := range []struct {
		field string
		spec  Spec
	}{
		{"Teleporters", Spec{Params: base, Hops: 5, Teleporters: -8}},
		{"Generators", Spec{Params: base, Hops: 5, Generators: -1}},
		{"Purifiers", Spec{Params: base, Hops: 5, Purifiers: -4}},
		{"HopCells", Spec{Params: base, Hops: 5, HopCells: -600}},
		{"TurnCells", Spec{Params: base, Hops: 5, TurnCells: -1}},
		{"CodeLevel", Spec{Params: base, Hops: 5, CodeLevel: -1}},
		{"Hops", Spec{Params: base, Hops: 0}},
		{"Hops", Spec{Params: base, Hops: -3}},
	} {
		ch, err := Plan(tc.spec)
		var ce *qnet.ConfigError
		if !errors.Is(err, qnet.ErrInvalidConfig) || !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("Plan with an invalid %s returned %v, %v; want a *qnet.ConfigError on that field", tc.field, ch, err)
		}
	}

	zero, err := Plan(Spec{Params: base, Hops: 5})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Plan(Spec{Params: base, Hops: 5, HopCells: 600, CodeLevel: 2,
		Teleporters: 16, Generators: 16, Purifiers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if zero != explicit {
		t.Errorf("zero-valued Spec plans %v, explicit defaults plan %v", zero, explicit)
	}
}

func TestDataLatencyApproachesClassical(t *testing.T) {
	// The paper's argument: with pre-distributed pairs, data movement
	// takes one teleport (~122µs) regardless of distance, not the
	// ballistic time (ms-scale over long paths).
	ch, err := Plan(Spec{Params: base, Hops: 30})
	if err != nil {
		t.Fatal(err)
	}
	ballistic := base.BallisticTime(30 * 600)
	if ch.DataLatency >= ballistic {
		t.Errorf("data latency %v should beat ballistic %v", ch.DataLatency, ballistic)
	}
	if ch.DataLatency > 200*time.Microsecond {
		t.Errorf("data latency %v should be ~one teleport (~122µs)", ch.DataLatency)
	}
}

func TestSetupLatencyGrowsWithDistance(t *testing.T) {
	prev := time.Duration(0)
	for _, hops := range []int{1, 5, 10, 20, 30} {
		ch, err := Plan(Spec{Params: base, Hops: hops})
		if err != nil {
			t.Fatal(err)
		}
		if ch.SetupLatency <= prev {
			t.Errorf("setup latency did not grow at %d hops: %v <= %v", hops, ch.SetupLatency, prev)
		}
		prev = ch.SetupLatency
	}
}

func TestBandwidthImprovesWithResources(t *testing.T) {
	lean, err := Plan(Spec{Params: base, Hops: 10, Teleporters: 4, Generators: 4, Purifiers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rich, err := Plan(Spec{Params: base, Hops: 10, Teleporters: 64, Generators: 64, Purifiers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if rich.Bandwidth <= lean.Bandwidth {
		t.Errorf("bandwidth should improve with resources: %g <= %g", rich.Bandwidth, lean.Bandwidth)
	}
}

func TestBottleneckShiftsToPurifier(t *testing.T) {
	ch, err := Plan(Spec{Params: base, Hops: 10, Teleporters: 64, Generators: 64, Purifiers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Bottleneck != "purifier" {
		t.Errorf("bottleneck = %q, want purifier with p=1", ch.Bottleneck)
	}
}

func TestWireSchemeReducesPairHops(t *testing.T) {
	end, err := Plan(Spec{Params: base, Hops: 30, Scheme: EndpointsOnly})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := Plan(Spec{Params: base, Hops: 30, Scheme: TwiceBefore})
	if err != nil {
		t.Fatal(err)
	}
	if wire.PairHopsPerLogical > end.PairHopsPerLogical {
		t.Errorf("wire purification should not increase pair-hops: %g > %g",
			wire.PairHopsPerLogical, end.PairHopsPerLogical)
	}
}

// Cross-validation: the analytic setup latency must agree with the
// event-driven simulator's measured uncontended channel latency within a
// factor of two (the models share stage times but differ in pipelining
// detail).
func TestPlanMatchesSimulator(t *testing.T) {
	for _, hops := range []int{1, 3, 7} {
		ch, err := Plan(Spec{Params: base, Hops: hops, Teleporters: 1024, Generators: 1024, Purifiers: 1024})
		if err != nil {
			t.Fatal(err)
		}
		grid, err := mesh.NewGrid(hops+1, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := netsim.DefaultConfig(grid, netsim.HomeBase, 1024, 1024, 1024)
		prog := workload.Program{Name: "xval", Qubits: 2, Ops: []workload.Op{{A: 0, B: hops}}}
		// Place qubit "hops" at the far end by using qubits = hops+1 and
		// ops between 0 and hops.
		prog.Qubits = hops + 1
		res, err := netsim.RunContext(context.Background(), cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		analytic := ch.SetupLatency + ch.DataLatency
		measured := res.MeanChannelLatency
		ratio := float64(measured) / float64(analytic)
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("hops=%d: simulator latency %v vs analytic %v (ratio %.2f), want within 2x",
				hops, measured, analytic, ratio)
		}
	}
}

func TestChannelString(t *testing.T) {
	ch, err := Plan(Spec{Params: base, Hops: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := ch.String()
	for _, want := range []string{"5 hops", "pairs/logical", "bound"} {
		if !containsSub(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

package channel

import (
	"context"
	"errors"
	"math"
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
// span or code level, a purification depth outside [0, 16], or an
// abstract path under one hop, is a *qnet.ConfigError naming the
// field, not a plan with a negative bandwidth; zero values still
// select the documented defaults.
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
		{"PurifyDepth", Spec{Params: base, Hops: 5, PurifyDepth: -1}},
		{"PurifyDepth", Spec{Params: base, Hops: 5, PurifyDepth: 17}},
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
	// The paper's 30-hop channel at 16/16/16 keeps 2 batches in each
	// node's storage, and waits on those slots.
	ch, err = Plan(Spec{Params: base, Hops: 30})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Bottleneck != "storage" {
		t.Errorf("bottleneck = %q, want storage over 30 hops at 16/16/16", ch.Bottleneck)
	}
}

// TestPlanMatchesSimulator: an idle channel in the simulator takes
// exactly the planned SetupLatency + DataLatency, when the simulator
// purifies at the planned depth.  Of one HomeBase op across a 1-row
// mesh, both channels (there and back) run alone on the mesh.
func TestPlanMatchesSimulator(t *testing.T) {
	for _, hops := range []int{1, 2, 3, 5, 7, 15} {
		for _, n := range []int{1, 4, 16, 1024} {
			ch, err := Plan(Spec{Params: base, Hops: hops, Teleporters: n, Generators: n, Purifiers: n})
			if err != nil {
				t.Fatal(err)
			}
			grid, err := mesh.NewGrid(hops+1, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := netsim.DefaultConfig(grid, netsim.HomeBase, n, n, n)
			cfg.PurifyDepth = ch.EndpointRounds
			prog := workload.Program{Name: "xval", Qubits: hops + 1, Ops: []workload.Op{{A: 0, B: hops}}}
			res, err := netsim.RunContext(context.Background(), cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			if want := ch.SetupLatency + ch.DataLatency; res.MeanChannelLatency != want {
				t.Errorf("%d hops at %d/%d/%d, depth %d: simulated %v, planned %v (off by %v)",
					hops, n, n, n, ch.EndpointRounds, res.MeanChannelLatency, want, res.MeanChannelLatency-want)
			}
		}
	}
}

// TestPlanNeedsNoPurification: a channel whose arrivals already meet
// the threshold purifies nothing, one pair per physical qubit, and
// still plans a positive setup and bandwidth.
func TestPlanNeedsNoPurification(t *testing.T) {
	for _, hops := range []int{1, 3, 10} {
		ch, err := Plan(Spec{Params: base.WithUniformError(1e-8), Hops: hops})
		if err != nil {
			t.Fatal(err)
		}
		if ch.EndpointRounds != 0 || ch.PairsPerLogical != 49 || ch.SetupLatency <= 0 || ch.Bandwidth <= 0 {
			t.Errorf("%d hops: %v rounds %d, want 0 rounds, 49 pairs, positive setup and bandwidth",
				hops, ch, ch.EndpointRounds)
		}
	}
}

// TestPlanPeriodMatchesBatchSpacing: the steady-state period Bandwidth
// reports per batch is the spacing the pipeline settles at, read as the
// setup a level-4 code adds over a level-3 one per extra batch.  The
// device has a tenth of Table 2's errors, so depth 2 meets the
// threshold over every path here; the timing does not depend on errors.
func TestPlanPeriodMatchesBatchSpacing(t *testing.T) {
	allocs := [][3]int{{1, 1, 1}, {4, 4, 4}, {16, 16, 16}, {1024, 1024, 1024},
		{16, 16, 1}, {64, 64, 16}, {24, 24, 16}, {1024, 8, 1024}}
	for _, hops := range []int{1, 3, 7, 15} {
		for _, a := range allocs {
			for _, depth := range []int{2, 3} {
				plan := func(level int) Channel {
					ch, err := Plan(Spec{Params: base.Scale(0.1), Hops: hops, CodeLevel: level, PurifyDepth: depth,
						Teleporters: a[0], Generators: a[1], Purifiers: a[2]})
					if err != nil {
						t.Fatal(err)
					}
					return ch
				}
				l3, l4 := plan(3), plan(4)
				spacing := float64(l4.SetupLatency-l3.SetupLatency) / (2401 - 343)
				period := float64(time.Second) / (l3.Bandwidth * 343)
				if math.Abs(spacing/period-1) > 0.01 {
					t.Errorf("%d hops at %v, depth %d: batches %v apart, period %v (%s)",
						hops, a, depth, time.Duration(spacing), time.Duration(period), l3.Bottleneck)
				}
			}
		}
	}
}

// TestPlanDepthContract: planning at the depth the threshold picks
// changes nothing but Spec.PurifyDepth, and one round less is a
// *qnet.ConfigError on PurifyDepth, over the golden's 28 channels.
func TestPlanDepthContract(t *testing.T) {
	for _, hops := range []int{1, 2, 3, 5, 7, 15, 30} {
		for _, n := range []int{1, 4, 16, 1024} {
			spec := Spec{Params: base, Hops: hops, Teleporters: n, Generators: n, Purifiers: n}
			auto, err := Plan(spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.PurifyDepth = auto.EndpointRounds
			fixed, err := Plan(spec)
			if err != nil {
				t.Fatal(err)
			}
			fixed.Spec.PurifyDepth = 0
			if fixed != auto {
				t.Errorf("%d hops at %d units: depth %d plans %v, depth 0 plans %v", hops, n, spec.PurifyDepth, fixed, auto)
			}
			spec.PurifyDepth--
			var ce *qnet.ConfigError
			if _, err := Plan(spec); !errors.As(err, &ce) || ce.Field != "PurifyDepth" {
				t.Errorf("%d hops at %d units, depth %d: %v, want a *qnet.ConfigError on PurifyDepth", hops, n, spec.PurifyDepth, err)
			}
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

package channel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fidelity"
	"repro/internal/purify"
)

func defCfg() Distribution { return DefaultDistribution(base) }

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		EndpointsOnly: "only at end",
		OnceBefore:    "once before teleport",
		TwiceBefore:   "twice before teleport",
		OnceAfter:     "once after each teleport",
		TwiceAfter:    "twice after each teleport",
		Scheme(99):    "Scheme(99)",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("%d.String() = %q, want %q", int(s), got, w)
		}
	}
}

func TestSchemeProperties(t *testing.T) {
	if EndpointsOnly.PumpRounds() != 0 || OnceBefore.PumpRounds() != 1 ||
		TwiceBefore.PumpRounds() != 2 || OnceAfter.PumpRounds() != 1 || TwiceAfter.PumpRounds() != 2 {
		t.Error("PumpRounds mapping wrong")
	}
	for _, s := range []Scheme{OnceAfter, TwiceAfter} {
		if !s.After() {
			t.Errorf("%v should be an after-scheme", s)
		}
	}
	for _, s := range []Scheme{EndpointsOnly, OnceBefore, TwiceBefore} {
		if s.After() {
			t.Errorf("%v should not be an after-scheme", s)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := defCfg().Validate(); err != nil {
		t.Fatalf("default config should validate: %v", err)
	}
	c := defCfg()
	c.HopCells = 0
	if err := c.Validate(); err == nil {
		t.Error("HopCells=0 should fail")
	}
	c = defCfg()
	c.Protocol = nil
	if err := c.Validate(); err == nil {
		t.Error("nil protocol should fail")
	}
	c = defCfg()
	c.TargetError = 0
	if err := c.Validate(); err == nil {
		t.Error("TargetError=0 should fail")
	}
	c = defCfg()
	c.MaxEndpointRounds = 0
	if err := c.Validate(); err == nil {
		t.Error("MaxEndpointRounds=0 should fail")
	}
}

func TestRawLinkPairError(t *testing.T) {
	// Paper §4.6: a 600-cell hop costs ~6e-4 of movement error ("for two
	// teleporters spaced 100 cells apart, ballistic movement error equals
	// ~1e-4" — scaled to 600 cells).
	e := defCfg().RawLinkPair().Error()
	if e < 5e-4 || e > 8e-4 {
		t.Errorf("raw link pair error = %g, want ~6e-4", e)
	}
}

func TestPumpImprovesFidelity(t *testing.T) {
	raw := defCfg().RawLinkPair()
	proto := purify.DEJMPS{Params: base}
	for rounds := 1; rounds <= 3; rounds++ {
		pumped, cost := pump(proto, raw, raw, rounds)
		if pumped.Error() >= raw.Error() {
			t.Errorf("%d pump rounds did not improve error: %g >= %g", rounds, pumped.Error(), raw.Error())
		}
		// Pumping k rounds consumes at least k+1 pairs.
		if cost < float64(rounds+1) {
			t.Errorf("%d pump rounds cost %g pairs, want >= %d", rounds, cost, rounds+1)
		}
	}
}

func TestPumpZeroRounds(t *testing.T) {
	raw := defCfg().RawLinkPair()
	out, cost := pump(purify.DEJMPS{Params: base}, raw, raw, 0)
	if out != raw || cost != 1 {
		t.Errorf("zero pump rounds should be identity with cost 1, got cost %g", cost)
	}
}

func TestWirePairMonotoneInPumpRounds(t *testing.T) {
	c := defCfg()
	prevErr := math.Inf(1)
	prevCost := 0.0
	for k := 0; k <= 2; k++ {
		w, cost := c.WirePair(k)
		if w.Error() >= prevErr {
			t.Errorf("pump %d: error %g not below previous %g", k, w.Error(), prevErr)
		}
		if cost <= prevCost {
			t.Errorf("pump %d: cost %g not above previous %g", k, cost, prevCost)
		}
		prevErr, prevCost = w.Error(), cost
	}
}

func TestEvaluateZeroHops(t *testing.T) {
	c := defCfg()
	got := c.Evaluate(EndpointsOnly, 0)
	if !got.Feasible {
		t.Fatal("zero-hop delivery must be feasible")
	}
	if got.TeleportedPairs != 0 {
		t.Errorf("zero hops should teleport nothing, got %g", got.TeleportedPairs)
	}
	// A single wire pair (error ~6e-4) still needs endpoint purification
	// to reach 7.5e-5.
	if got.EndpointRounds < 1 {
		t.Errorf("zero-hop pair should still need purification, rounds=%d", got.EndpointRounds)
	}
}

func TestEvaluateNegativeHopsClamps(t *testing.T) {
	got := defCfg().Evaluate(EndpointsOnly, -5)
	if got.Hops != 0 {
		t.Errorf("negative hops should clamp to 0, got %d", got.Hops)
	}
}

func TestFinalErrorMeetsTarget(t *testing.T) {
	c := defCfg()
	for _, s := range Schemes {
		for _, d := range []int{1, 10, 30, 64} {
			got := c.Evaluate(s, d)
			if !got.Feasible {
				t.Errorf("%v d=%d should be feasible at Table 2 error rates", s, d)
				continue
			}
			if got.FinalError > c.TargetError {
				t.Errorf("%v d=%d: final error %g exceeds target %g", s, d, got.FinalError, c.TargetError)
			}
		}
	}
}

func TestEndpointRoundsDepthThreeForPaperDistances(t *testing.T) {
	// Paper §5.3: "we will need a maximum purification tree of depth
	// three (for distances under consideration)" — up to the ~30-hop
	// Manhattan diameter of the 16×16 grid.
	c := defCfg()
	maxRounds := 0
	for d := 1; d <= 30; d++ {
		got := c.Evaluate(EndpointsOnly, d)
		if !got.Feasible {
			t.Fatalf("d=%d infeasible", d)
		}
		if got.EndpointRounds > maxRounds {
			maxRounds = got.EndpointRounds
		}
	}
	if maxRounds != 3 {
		t.Errorf("max endpoint rounds over 1..30 hops = %d, want 3", maxRounds)
	}
}

func TestFig10EndpointsOnlyCheapestTotal(t *testing.T) {
	// Paper: "Figure 10 shows that the Endpoints Only scheme uses the
	// fewest total EPR resources."  Allow 10% slack at distances where a
	// wire-purification scheme crosses an endpoint-round boundary (the
	// curves are within a line's width on the paper's 7-decade axis).
	c := defCfg()
	for _, d := range []int{5, 10, 15, 20, 25, 30, 40, 50, 60} {
		endpoints := c.Evaluate(EndpointsOnly, d).TotalPairs
		for _, s := range []Scheme{OnceBefore, TwiceBefore, OnceAfter, TwiceAfter} {
			if other := c.Evaluate(s, d).TotalPairs; endpoints > other*1.10 {
				t.Errorf("d=%d: endpoints-only total %g exceeds %v total %g", d, endpoints, s, other)
			}
		}
	}
}

func TestFig10AfterSchemesExponential(t *testing.T) {
	// "over-purifying bits leads to additional exponential resource
	// requirements": once-after grows ~2x per hop, twice-after ~3x.
	c := defCfg()
	for _, tc := range []struct {
		s         Scheme
		minGrowth float64
		maxGrowth float64
	}{
		{OnceAfter, 1.8, 2.3},
		{TwiceAfter, 2.6, 3.5},
	} {
		t10 := c.Evaluate(tc.s, 10).TotalPairs
		t20 := c.Evaluate(tc.s, 20).TotalPairs
		perHop := math.Pow(t20/t10, 1.0/10)
		if perHop < tc.minGrowth || perHop > tc.maxGrowth {
			t.Errorf("%v: per-hop growth %g, want in [%g, %g]", tc.s, perHop, tc.minGrowth, tc.maxGrowth)
		}
	}
}

func TestFig11BeforeSchemesTeleportNoMore(t *testing.T) {
	// Paper: "virtual wire purification reduces the number of EPR pairs
	// that need to move through the teleporters."
	c := defCfg()
	for _, d := range []int{5, 10, 15, 20, 25, 30, 40, 50, 60} {
		endpoints := c.Evaluate(EndpointsOnly, d).TeleportedPairs
		for _, s := range []Scheme{OnceBefore, TwiceBefore} {
			if got := c.Evaluate(s, d).TeleportedPairs; got > endpoints*(1+1e-9) {
				t.Errorf("d=%d: %v teleported %g > endpoints-only %g", d, s, got, endpoints)
			}
		}
	}
}

func TestFig11AfterSchemesTeleportFarMore(t *testing.T) {
	c := defCfg()
	for _, d := range []int{10, 20, 30} {
		endpoints := c.Evaluate(EndpointsOnly, d).TeleportedPairs
		for _, s := range []Scheme{OnceAfter, TwiceAfter} {
			if got := c.Evaluate(s, d).TeleportedPairs; got < endpoints*10 {
				t.Errorf("d=%d: %v teleported %g, want >> endpoints-only %g", d, s, got, endpoints)
			}
		}
	}
}

func TestFig12AllSchemesBreakTogether(t *testing.T) {
	// Paper: "all the purification configurations stop working for the
	// same error rate" — the limit is the purification noise floor, not
	// the incoming fidelity.
	broken := base.WithUniformError(1e-4)
	cfg := DefaultDistribution(broken)
	for _, s := range Schemes {
		if got := cfg.Evaluate(s, 10); got.Feasible {
			t.Errorf("%v should be infeasible at rate 1e-4", s)
		}
	}
	working := base.WithUniformError(1e-6)
	cfg = DefaultDistribution(working)
	for _, s := range Schemes {
		if got := cfg.Evaluate(s, 10); !got.Feasible {
			t.Errorf("%v should be feasible at rate 1e-6", s)
		}
	}
}

func TestFig12ResourceSpreadWithinWorkingRegime(t *testing.T) {
	// Paper: "Throughout the regime at which our system does work ...
	// the total network resources only differ by a factor of up to 100
	// for a 10,000 times difference in operation error rate."
	lo := DefaultDistribution(base.WithUniformError(1e-9)).Evaluate(EndpointsOnly, 10)
	hi := DefaultDistribution(base.WithUniformError(1e-5)).Evaluate(EndpointsOnly, 10)
	if !lo.Feasible || !hi.Feasible {
		t.Fatal("both ends of the working regime should be feasible")
	}
	spread := hi.TeleportedPairs / lo.TeleportedPairs
	if spread > 100 {
		t.Errorf("resource spread across 1e-9..1e-5 = %gx, paper reports up to 100x", spread)
	}
	if spread < 2 {
		t.Errorf("resource spread %gx suspiciously flat", spread)
	}
}

// Property: delivery cost metrics are always positive and consistent for
// feasible evaluations: total >= teleported (every teleported pair is
// also consumed) and rounds within the cap.
func TestEvaluateConsistencyProperty(t *testing.T) {
	c := defCfg()
	f := func(sRaw, dRaw uint8) bool {
		s := Schemes[int(sRaw)%len(Schemes)]
		d := int(dRaw)%30 + 1
		got := c.Evaluate(s, d)
		if !got.Feasible {
			return false
		}
		if got.TotalPairs < got.TeleportedPairs {
			return false
		}
		if got.EndpointRounds < 0 || got.EndpointRounds > c.MaxEndpointRounds {
			return false
		}
		return got.ArrivalError > 0 && got.ArrivalError < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: teleported pairs are monotone non-decreasing in distance for
// non-after schemes.
func TestTeleportedMonotoneInDistance(t *testing.T) {
	c := defCfg()
	for _, s := range []Scheme{EndpointsOnly, OnceBefore, TwiceBefore} {
		prev := 0.0
		for d := 1; d <= 40; d++ {
			got := c.Evaluate(s, d)
			if got.TeleportedPairs < prev {
				t.Errorf("%v: teleported dropped at d=%d: %g < %g", s, d, got.TeleportedPairs, prev)
			}
			prev = got.TeleportedPairs
		}
	}
}

func TestTeleportBellMatchesScalarForWerner(t *testing.T) {
	// For Werner inputs the Bell-level teleport must agree with Eq 3.
	data := fidelity.Werner(0.99)
	eprPair := fidelity.Werner(0.999)
	got := fidelity.TeleportBell(base, data, eprPair).Fidelity()
	want := fidelity.Teleport(base, 0.99, 0.999)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("TeleportBell = %g, Eq 3 = %g", got, want)
	}
}

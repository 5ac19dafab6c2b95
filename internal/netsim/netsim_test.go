package netsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/workload"

	"repro/qnet"
)

func grid(t *testing.T, w, h int) mesh.Grid {
	t.Helper()
	g, err := mesh.NewGrid(w, h)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// run executes the program to completion.
func run(cfg Config, prog workload.Program) (Result, error) {
	return RunContext(context.Background(), cfg, prog)
}

// runDetailed executes the program to completion with per-component
// statistics.
func runDetailed(cfg Config, prog workload.Program) (Result, *Detail, error) {
	return RunDetailedContext(context.Background(), cfg, prog)
}

// channel is channelCall with a plain func() continuation, for tests
// that open a channel by hand.
func (s *simulator) channel(src, dst mesh.Coord, done func()) {
	s.channelCall(src, dst, func(any) { done() }, nil)
}

func TestConfigValidate(t *testing.T) {
	g := grid(t, 4, 4)
	good := DefaultConfig(g, HomeBase, 16, 16, 16)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config should validate: %v", err)
	}
	bad := good
	bad.Teleporters = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero teleporters should fail")
	}
	bad = good
	bad.PurifyDepth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero purify depth should fail")
	}
	bad = good
	bad.CodeLevel = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative code level should fail")
	}
	bad = good
	bad.HopCells = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero hop cells should fail")
	}
	bad = good
	bad.TurnCells = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative turn cells should fail")
	}
}

func TestLayoutString(t *testing.T) {
	if HomeBase.String() != "HomeBase" || MobileQubit.String() != "MobileQubit" {
		t.Error("layout names wrong")
	}
	if Layout(9).String() != "Layout(9)" {
		t.Error("unknown layout rendering wrong")
	}
}

func TestRunRejectsTooManyQubits(t *testing.T) {
	g := grid(t, 2, 2)
	cfg := DefaultConfig(g, HomeBase, 16, 16, 16)
	_, err := run(cfg, workload.QFT(5))
	var ce *qnet.CapacityError
	if !errors.As(err, &ce) || ce.Resource != "tiles" || ce.Need != 5 || ce.Have != 4 {
		t.Errorf("5 qubits on a 2x2 grid: err = %v, want a tiles CapacityError (need 5, have 4)", err)
	}
}

func TestRunSingleOp(t *testing.T) {
	g := grid(t, 4, 1)
	cfg := DefaultConfig(g, HomeBase, 1024, 1024, 1024)
	prog := workload.Program{Name: "one", Qubits: 2, Ops: []workload.Op{{A: 0, B: 1}}}
	res, err := run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 1 {
		t.Errorf("ops = %d, want 1", res.Ops)
	}
	// Home Base: one channel in, one channel back.
	if res.Channels != 2 {
		t.Errorf("channels = %d, want 2", res.Channels)
	}
	// Each channel delivers 2^3 × 49 = 392 pairs (paper §5.3).
	if res.PairsDelivered != 2*392 {
		t.Errorf("pairs delivered = %d, want 784", res.PairsDelivered)
	}
	// Both channels span 1 hop: pair-hops = pairs.
	if res.PairHops != 2*392 {
		t.Errorf("pair hops = %d, want 784", res.PairHops)
	}
	if res.Exec <= 0 {
		t.Error("execution time must be positive")
	}
}

func TestRunSingleOpChannelLatencyBreakdown(t *testing.T) {
	// With unlimited resources, a 1-hop channel's critical path is
	// storage(immediate) + generate + teleport + correct + purify-batch
	// + data teleport.  Check the mean latency is in that ballpark
	// (pipelining makes the 49 batches nearly concurrent).
	g := grid(t, 2, 1)
	cfg := DefaultConfig(g, HomeBase, 4096, 4096, 4096)
	prog := workload.Program{Name: "one", Qubits: 2, Ops: []workload.Op{{A: 0, B: 1}}}
	res, err := run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.Params
	min := p.GenerateTime() + p.TeleportTime(600) + (4+2)*p.PurifyRoundTime(600)
	if res.MeanChannelLatency < min {
		t.Errorf("channel latency %v below physical minimum %v", res.MeanChannelLatency, min)
	}
	if res.MeanChannelLatency > 3*min {
		t.Errorf("channel latency %v far above uncontended minimum %v", res.MeanChannelLatency, min)
	}
}

func TestMobileLayoutUsesLocalCommunication(t *testing.T) {
	// The Mobile Qubit layout turns the QFT into mostly single-hop moves:
	// total pair-hops must be far below Home Base's.
	g := grid(t, 4, 4)
	prog := workload.QFT(16)
	home, err := run(DefaultConfig(g, HomeBase, 1024, 1024, 1024), prog)
	if err != nil {
		t.Fatal(err)
	}
	mobile, err := run(DefaultConfig(g, MobileQubit, 1024, 1024, 1024), prog)
	if err != nil {
		t.Fatal(err)
	}
	if mobile.PairHops*2 > home.PairHops {
		t.Errorf("mobile pair-hops %d not well below home-base %d", mobile.PairHops, home.PairHops)
	}
	if mobile.Exec >= home.Exec {
		t.Errorf("mobile exec %v should beat home-base %v on QFT", mobile.Exec, home.Exec)
	}
	// Home Base sets up two channels per op; Mobile one per op plus
	// returns.
	if home.Channels != 2*uint64(len(prog.Ops)) {
		t.Errorf("home-base channels = %d, want %d", home.Channels, 2*len(prog.Ops))
	}
	if mobile.Channels >= home.Channels {
		t.Errorf("mobile channels = %d, want fewer than home-base %d", mobile.Channels, home.Channels)
	}
}

func TestMobileQubitsReturnHome(t *testing.T) {
	// After the run, every qubit's trailing return must have executed:
	// the run drains all events, so exec includes returns.  We detect
	// this by comparing against a run whose last ops end far from home.
	g := grid(t, 4, 4)
	prog := workload.QFT(16)
	res, err := run(DefaultConfig(g, MobileQubit, 1024, 1024, 1024), prog)
	if err != nil {
		t.Fatal(err)
	}
	// 15 movers must return (qubit 15 never moves as A), mostly from
	// qubit 15's home: returns are long channels, so channel count is
	// ops + returns.
	wantReturns := uint64(15)
	minChannels := uint64(len(prog.Ops)) - res.LocalOps + wantReturns
	if res.Channels < minChannels-2 || res.Channels > minChannels+2 {
		t.Errorf("channels = %d, want ~%d (ops + returns)", res.Channels, minChannels)
	}
}

func TestDeterminism(t *testing.T) {
	g := grid(t, 4, 4)
	prog := workload.QFT(16)
	cfg := DefaultConfig(g, HomeBase, 8, 8, 4)
	a, err := run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("two identical runs disagree:\n%+v\n%+v", a, b)
	}
}

func TestContentionSlowsExecution(t *testing.T) {
	g := grid(t, 4, 4)
	prog := workload.QFT(16)
	rich, err := run(DefaultConfig(g, HomeBase, 1024, 1024, 1024), prog)
	if err != nil {
		t.Fatal(err)
	}
	poor, err := run(DefaultConfig(g, HomeBase, 8, 8, 1), prog)
	if err != nil {
		t.Fatal(err)
	}
	if poor.Exec <= rich.Exec {
		t.Errorf("constrained run %v should be slower than unlimited %v", poor.Exec, rich.Exec)
	}
}

func TestPurifierStarvationHurtsMobileMore(t *testing.T) {
	// The Figure 16 asymmetry: Mobile Qubit concentrates demand on few
	// endpoint purifiers, so cutting p hurts it more than Home Base,
	// whose channel bandwidth is already limited by T' sharing.
	g := grid(t, 4, 4)
	prog := workload.QFT(16)
	slowdown := func(layout Layout) float64 {
		rich, err := run(DefaultConfig(g, layout, 16, 16, 16), prog)
		if err != nil {
			t.Fatal(err)
		}
		starved, err := run(DefaultConfig(g, layout, 22, 22, 2), prog)
		if err != nil {
			t.Fatal(err)
		}
		return float64(starved.Exec) / float64(rich.Exec)
	}
	home := slowdown(HomeBase)
	mobile := slowdown(MobileQubit)
	if mobile <= home {
		t.Errorf("purifier starvation slowdown: mobile %.2fx vs home %.2fx — mobile should suffer more", mobile, home)
	}
}

func TestAllToAllOnMinimalResources(t *testing.T) {
	// Deadlock-freedom stress: minimal resources everywhere, ops forced
	// through shared links in both directions.
	g := grid(t, 3, 3)
	prog := workload.QFT(9)
	cfg := DefaultConfig(g, HomeBase, 1, 1, 1)
	res, err := run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != len(prog.Ops) {
		t.Errorf("completed %d ops, want %d", res.Ops, len(prog.Ops))
	}
}

func TestModMultAndModExpRun(t *testing.T) {
	g := grid(t, 4, 4)
	for _, prog := range []workload.Program{workload.ModMult(8), workload.ModExp(4, 2)} {
		for _, layout := range []Layout{HomeBase, MobileQubit} {
			res, err := run(DefaultConfig(g, layout, 16, 16, 8), prog)
			if err != nil {
				t.Fatalf("%s on %v: %v", prog.Name, layout, err)
			}
			if res.Exec <= 0 {
				t.Errorf("%s on %v: non-positive exec time", prog.Name, layout)
			}
		}
	}
}

func TestLocalOpsSkipNetwork(t *testing.T) {
	// Two qubits at the same tile (mobile, after A moves to B) perform
	// later ops locally.  Construct: op(0,1) moves 0 to 1's tile; then
	// op(0,1) again is forbidden (duplicate) — instead use op ordering
	// where A returns to the same destination: op(0,1), op(2,1)...
	// Simplest check: a 1x2 grid with ops between the two qubits in
	// mobile layout: second op between co-located qubits is local.
	g := grid(t, 2, 1)
	prog := workload.Program{
		Name:   "local",
		Qubits: 2,
		Ops:    []workload.Op{{A: 0, B: 1}, {A: 1, B: 0}},
	}
	res, err := run(DefaultConfig(g, MobileQubit, 64, 64, 64), prog)
	if err != nil {
		t.Fatal(err)
	}
	// Op 1: qubit 0 moves to tile of qubit 1 (1 hop).  Op 2: qubit 1
	// moves to qubit 0's position — same tile, so it is local.
	if res.LocalOps != 1 {
		t.Errorf("local ops = %d, want 1", res.LocalOps)
	}
}

func TestSweepAllocations(t *testing.T) {
	allocs, err := SweepAllocations(48, []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 4 {
		t.Fatalf("got %d allocations, want 4", len(allocs))
	}
	for _, a := range allocs {
		if a.T < 1 || a.G < 1 || a.P < 1 {
			t.Errorf("%v has a zero resource", a)
		}
		if a.T != a.G {
			t.Errorf("%v should have t == g", a)
		}
		area := a.T + a.G + a.P
		if area < 44 || area > 52 {
			t.Errorf("%v area = %d, want ~48", a, area)
		}
	}
	// Ratio 1 must split evenly.
	if allocs[0].T != 16 || allocs[0].P != 16 {
		t.Errorf("ratio-1 allocation = %v, want 16/16/16", allocs[0])
	}
	// Purifiers must shrink as the ratio grows.
	for i := 1; i < len(allocs); i++ {
		if allocs[i].P >= allocs[i-1].P {
			t.Errorf("purifiers did not shrink: %v -> %v", allocs[i-1], allocs[i])
		}
	}
}

func TestSweepAllocationsValidation(t *testing.T) {
	if _, err := SweepAllocations(2, []int{1}); err == nil {
		t.Error("tiny area should fail")
	}
	if _, err := SweepAllocations(48, []int{0}); err == nil {
		t.Error("zero ratio should fail")
	}
}

func TestPairHopsScaleWithDistance(t *testing.T) {
	// A single op between far-apart qubits teleports 392 pairs across
	// every hop of the dimension-ordered path, both ways (Home Base).
	g := grid(t, 8, 1)
	cfg := DefaultConfig(g, HomeBase, 1024, 1024, 1024)
	prog := workload.Program{Name: "far", Qubits: 8, Ops: []workload.Op{{A: 0, B: 7}}}
	res, err := run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(2 * 392 * 7); res.PairHops != want {
		t.Errorf("pair hops = %d, want %d", res.PairHops, want)
	}
}

func TestClassicalTrafficAccounted(t *testing.T) {
	g := grid(t, 4, 1)
	cfg := DefaultConfig(g, HomeBase, 1024, 1024, 1024)
	prog := workload.Program{Name: "one", Qubits: 2, Ops: []workload.Op{{A: 0, B: 1}}}
	res, err := run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	// Per channel: 392 teleport messages (1 hop) + 49 batches × 7
	// purification messages; two channels.
	want := uint64(2 * (392 + 49*7))
	if res.ClassicalMessages != want {
		t.Errorf("classical messages = %d, want %d", res.ClassicalMessages, want)
	}
}

func TestFailureInjectionValidation(t *testing.T) {
	g := grid(t, 4, 4)
	cfg := DefaultConfig(g, HomeBase, 16, 16, 16)
	cfg.PurifyFailureRate = 1.0
	if err := cfg.Validate(); err == nil {
		t.Error("failure rate 1.0 should be rejected")
	}
	cfg.PurifyFailureRate = -0.1
	if err := cfg.Validate(); err == nil {
		t.Error("negative failure rate should be rejected")
	}
}

func TestFailureInjectionCostsPairsAndTime(t *testing.T) {
	g := grid(t, 4, 4)
	prog := workload.QFT(16)
	clean := DefaultConfig(g, HomeBase, 16, 16, 8)
	resClean, err := run(clean, prog)
	if err != nil {
		t.Fatal(err)
	}
	faulty := clean
	faulty.PurifyFailureRate = 0.2
	faulty.Seed = 1
	resFaulty, err := run(faulty, prog)
	if err != nil {
		t.Fatal(err)
	}
	if resFaulty.FailedBatches == 0 {
		t.Fatal("20% failure rate should lose some batches")
	}
	if resClean.FailedBatches != 0 {
		t.Errorf("clean run reported %d failed batches", resClean.FailedBatches)
	}
	if resFaulty.PairHops <= resClean.PairHops {
		t.Errorf("failures should force extra pair-hops: %d <= %d", resFaulty.PairHops, resClean.PairHops)
	}
	if resFaulty.Exec <= resClean.Exec {
		t.Errorf("failures should slow execution: %v <= %v", resFaulty.Exec, resClean.Exec)
	}
	// Roughly 20% of batches should fail (with slack for a finite run:
	// each failure respawns a batch that can itself fail, so the rate is
	// against total batch-attempts).
	attempts := resFaulty.Channels*49 + resFaulty.FailedBatches
	frac := float64(resFaulty.FailedBatches) / float64(attempts)
	if frac < 0.1 || frac > 0.3 {
		t.Errorf("failed fraction = %.3f, want ~0.2", frac)
	}
}

func TestFailureInjectionSeedReproducible(t *testing.T) {
	g := grid(t, 4, 4)
	prog := workload.QFT(16)
	cfg := DefaultConfig(g, HomeBase, 16, 16, 8)
	cfg.PurifyFailureRate = 0.1
	cfg.Seed = 42
	a, err := run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same seed should reproduce the same run")
	}
	cfg.Seed = 43
	c, err := run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds should (almost surely) differ")
	}
}

// TestStorageWindowBindsHomeBase pins a finding about the storage
// model on 8x8 HomeBase QFT-64: build gives each incoming link
// floor(t/8) whole 8-pair batches of storage, not t pair cells, and at
// these allocations that window, not t, g or p, sets Exec.  16/16/16,
// 19/19/9 and 16/1024/1024 all hold 2 batches and run the same
// 7.550902 s; 15/15/16 holds 1 batch and runs 22.13971 s; 24/24/16
// holds 3 and runs 4.911715 s.  (With p = 2 the purifiers bind
// instead.)  A change to the storage model moves these values on
// purpose, and this test must move with it.
func TestStorageWindowBindsHomeBase(t *testing.T) {
	g := grid(t, 8, 8)
	prog := workload.QFT(64)
	cases := []struct {
		t, g, p int
		want    time.Duration
	}{
		{16, 16, 16, 7550902 * time.Microsecond},
		{19, 19, 9, 7550902 * time.Microsecond},
		{16, 1024, 1024, 7550902 * time.Microsecond},
		{15, 15, 16, 22139710 * time.Microsecond},
		{24, 24, 16, 4911715 * time.Microsecond},
	}
	for _, tc := range cases {
		res, err := run(DefaultConfig(g, HomeBase, tc.t, tc.g, tc.p), prog)
		if err != nil {
			t.Fatal(err)
		}
		if res.Exec != tc.want {
			t.Errorf("t/g/p = %d/%d/%d: Exec = %v, want %v (storage window %d batches)",
				tc.t, tc.g, tc.p, res.Exec, tc.want, tc.t/8)
		}
	}
}

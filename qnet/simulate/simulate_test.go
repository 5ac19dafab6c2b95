package simulate

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/netsim"

	"repro/qnet"
)

func testGrid(t testing.TB, n int) qnet.Grid {
	t.Helper()
	grid, err := qnet.NewGrid(n, n)
	if err != nil {
		t.Fatal(err)
	}
	return grid
}

// TestOptionsRoundTrip asserts that the functional options build exactly
// the netsim.Config the old positional constructor plus field pokes
// produced — the two configuration paths must stay equivalent while the
// deprecated facade is alive.
func TestOptionsRoundTrip(t *testing.T) {
	grid := testGrid(t, 4)
	p := qnet.IonTrap2006().Scale(10)

	m, err := New(grid, MobileQubit,
		WithParams(p),
		WithResources(24, 12, 6),
		WithPurifyDepth(4),
		WithCodeLevel(1),
		WithHopCells(800),
		WithTurnCells(40),
		WithSeed(99),
		WithFailureRate(0.25),
	)
	if err != nil {
		t.Fatal(err)
	}

	want := netsim.DefaultConfig(grid, netsim.MobileQubit, 24, 12, 6)
	want.Params = p
	want.PurifyDepth = 4
	want.CodeLevel = 1
	want.HopCells = 800
	want.TurnCells = 40
	want.Seed = 99
	want.PurifyFailureRate = 0.25

	if !reflect.DeepEqual(m.cfg, want) {
		t.Errorf("options round-trip mismatch:\n got %+v\nwant %+v", m.cfg, want)
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	grid := testGrid(t, 4)
	m, err := New(grid, HomeBase)
	if err != nil {
		t.Fatal(err)
	}
	want := netsim.DefaultConfig(grid, netsim.HomeBase, 16, 16, 16)
	if !reflect.DeepEqual(m.cfg, want) {
		t.Errorf("defaults mismatch:\n got %+v\nwant %+v", m.cfg, want)
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	grid := testGrid(t, 4)
	cases := []struct {
		name  string
		opt   Option
		field string
	}{
		{"teleporters", WithResources(0, 16, 16), "Teleporters"},
		{"generators", WithResources(16, 0, 16), "Generators"},
		{"purifiers", WithResources(16, 16, 0), "Purifiers"},
		{"depth", WithPurifyDepth(17), "PurifyDepth"},
		{"code", WithCodeLevel(-1), "CodeLevel"},
		{"hops", WithHopCells(0), "HopCells"},
		{"turns", WithTurnCells(-1), "TurnCells"},
		{"failure", WithFailureRate(1.0), "FailureRate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(grid, HomeBase, tc.opt)
			if !errors.Is(err, qnet.ErrInvalidConfig) {
				t.Fatalf("err = %v, want ErrInvalidConfig", err)
			}
			var ce *qnet.ConfigError
			if !errors.As(err, &ce) || ce.Field != tc.field {
				t.Errorf("field = %v, want %s", ce, tc.field)
			}
		})
	}
}

func TestRunHonorsCancelledContext(t *testing.T) {
	grid := testGrid(t, 4)
	m, err := New(grid, HomeBase)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = m.Run(ctx, qnet.QFT(grid.Tiles()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunCapacityError(t *testing.T) {
	grid := testGrid(t, 4)
	m, err := New(grid, HomeBase)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(context.Background(), qnet.QFT(grid.Tiles()+1))
	if !errors.Is(err, qnet.ErrCapacity) {
		t.Fatalf("err = %v, want ErrCapacity", err)
	}
	var ce *qnet.CapacityError
	if !errors.As(err, &ce) || ce.Resource != "tiles" {
		t.Errorf("capacity error = %+v, want tiles", ce)
	}
}

// TestMachineReusable asserts a machine can run many programs and that
// repeated runs of the same program are identical (fresh per-run state).
func TestMachineReusable(t *testing.T) {
	grid := testGrid(t, 4)
	m, err := New(grid, MobileQubit, WithResources(16, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := m.Run(ctx, qnet.QFT(grid.Tiles()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(ctx, qnet.ModMult(grid.Tiles()/2)); err != nil {
		t.Fatal(err)
	}
	again, err := m.Run(ctx, qnet.QFT(grid.Tiles()))
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Errorf("re-run of the same program differs:\n got %+v\nwant %+v", again, first)
	}
}

// TestSessionReproducible asserts two sessions on identical machines
// produce identical run sequences, and that the per-run derived seeds
// actually vary between runs under failure injection.
func TestSessionReproducible(t *testing.T) {
	grid := testGrid(t, 4)
	prog := qnet.QFT(grid.Tiles())
	ctx := context.Background()

	build := func() *Session {
		m, err := New(grid, HomeBase,
			WithResources(16, 16, 8),
			WithSeed(42),
			WithFailureRate(0.1))
		if err != nil {
			t.Fatal(err)
		}
		return m.NewSession()
	}
	a, b := build(), build()
	var aFailed, bFailed []uint64
	for i := 0; i < 3; i++ {
		ra, err := a.Run(ctx, prog)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Run(ctx, prog)
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb {
			t.Errorf("run %d diverged between identical sessions", i)
		}
		aFailed = append(aFailed, ra.FailedBatches)
		bFailed = append(bFailed, rb.FailedBatches)
	}
	if a.Runs() != 3 || len(a.Results()) != 3 {
		t.Errorf("session recorded %d/%d runs, want 3/3", a.Runs(), len(a.Results()))
	}
	if a.TotalExec() <= 0 {
		t.Error("session total exec not positive")
	}
	// With a 10% failure rate the three derived seeds should not all
	// produce the same failure count; identical counts would suggest the
	// per-run seed derivation is broken.
	if aFailed[0] == aFailed[1] && aFailed[1] == aFailed[2] {
		t.Errorf("all session runs had identical failure counts %v: per-run seeds look constant", aFailed)
	}
	_ = bFailed
}

// TestSeededRunsReproducible guards the per-run RNG fix: two runs with
// the same seed (including seed 0) and failure injection must be
// identical, and different seeds should diverge.
func TestSeededRunsReproducible(t *testing.T) {
	grid := testGrid(t, 4)
	prog := qnet.QFT(grid.Tiles())
	ctx := context.Background()
	run := func(seed int64) Result {
		m, err := New(grid, HomeBase,
			WithResources(16, 16, 8),
			WithSeed(seed),
			WithFailureRate(0.2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(ctx, prog)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if run(0) != run(0) {
		t.Error("seed-0 runs are not reproducible")
	}
	if run(5) != run(5) {
		t.Error("seed-5 runs are not reproducible")
	}
	if run(0) == run(5) {
		t.Error("different seeds produced identical runs; failure injection looks dead")
	}
}

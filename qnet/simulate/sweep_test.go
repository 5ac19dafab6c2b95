package simulate

import (
	"context"
	"errors"
	"testing"

	"repro/qnet"
)

// test2x2x2Space is the satellite-task space: layouts × resources ×
// seeds, 8 points total, with failure injection so the seeds matter.
func test2x2x2Space(t testing.TB) Space {
	grid := testGrid(t, 4)
	return Space{
		Grids:   []qnet.Grid{grid},
		Layouts: []Layout{HomeBase, MobileQubit},
		Resources: []Resources{
			{Teleporters: 16, Generators: 16, Purifiers: 8},
			{Teleporters: 8, Generators: 8, Purifiers: 4},
		},
		Programs: []qnet.Program{qnet.QFT(grid.Tiles())},
		Seeds:    []int64{1, 2},
		Options:  []Option{WithFailureRate(0.1)},
	}
}

// TestSweepCoversSpaceExactlyOnce asserts the sweep returns every point
// of the space exactly once, in expansion order.
func TestSweepCoversSpaceExactlyOnce(t *testing.T) {
	space := test2x2x2Space(t)
	if space.Size() != 8 {
		t.Fatalf("space size = %d, want 8", space.Size())
	}
	points, err := Sweep(context.Background(), space, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("got %d points, want 8", len(points))
	}
	seen := make(map[int]bool)
	for i, pt := range points {
		if pt.Err != nil {
			t.Fatalf("point %d failed: %v", i, pt.Err)
		}
		if pt.Point.Index != i {
			t.Errorf("point %d has index %d: results not in expansion order", i, pt.Point.Index)
		}
		if seen[pt.Point.Index] {
			t.Errorf("point index %d returned twice", pt.Point.Index)
		}
		seen[pt.Point.Index] = true
	}
	// Expansion order: layouts ≫ resources ≫ seeds (single grid and
	// program), last dimension fastest.
	want := []struct {
		layout Layout
		telep  int
		seed   int64
	}{
		{HomeBase, 16, 1}, {HomeBase, 16, 2}, {HomeBase, 8, 1}, {HomeBase, 8, 2},
		{MobileQubit, 16, 1}, {MobileQubit, 16, 2}, {MobileQubit, 8, 1}, {MobileQubit, 8, 2},
	}
	for i, w := range want {
		pt := points[i].Point
		if pt.Layout != w.layout || pt.Resources.Teleporters != w.telep || pt.Seed != w.seed {
			t.Errorf("point %d = (%v, t=%d, seed=%d), want (%v, t=%d, seed=%d)",
				i, pt.Layout, pt.Resources.Teleporters, pt.Seed, w.layout, w.telep, w.seed)
		}
	}
}

// TestSweepDeterministic asserts sweep results are a pure function of
// the space: worker count and scheduling must not leak into results.
func TestSweepDeterministic(t *testing.T) {
	space := test2x2x2Space(t)
	ctx := context.Background()
	seq, err := Sweep(ctx, space, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep(ctx, space, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("sequential %d points vs parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Result != par[i].Result {
			t.Errorf("point %d: sequential and 8-worker results differ:\n seq %+v\n par %+v",
				i, seq[i].Result, par[i].Result)
		}
	}
}

func TestSweepEmptyDimension(t *testing.T) {
	space := test2x2x2Space(t)
	space.Programs = nil
	_, err := Sweep(context.Background(), space)
	if !errors.Is(err, qnet.ErrInvalidConfig) {
		t.Fatalf("err = %v, want ErrInvalidConfig", err)
	}
}

func TestSweepInvalidPoint(t *testing.T) {
	space := test2x2x2Space(t)
	space.Depths = []int{0}
	_, err := Sweep(context.Background(), space)
	if !errors.Is(err, qnet.ErrInvalidConfig) {
		t.Fatalf("err = %v, want ErrInvalidConfig (bad depth caught up front)", err)
	}
}

func TestSweepCancelled(t *testing.T) {
	space := test2x2x2Space(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	points, err := Sweep(ctx, space)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(points) != 0 {
		// Cancelled before any dispatch: workers abort their in-flight
		// runs, so nothing (or at most nothing) should be delivered.
		t.Errorf("got %d points from a pre-cancelled sweep", len(points))
	}
}

// TestFlightClaimHonoursContext asserts a claim on a key another
// goroutine holds waits for its release, and gives up with ctx's error,
// owning nothing, when ctx ends first.
func TestFlightClaimHonoursContext(t *testing.T) {
	f := newFlightGroup()
	var k Key
	if err := f.claim(context.Background(), k); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.claim(ctx, k); !errors.Is(err, context.Canceled) {
		t.Fatalf("claim on a held key under a cancelled ctx: %v, want context.Canceled", err)
	}
	done := make(chan error, 1)
	go func() { done <- f.claim(context.Background(), k) }()
	f.release(k)
	if err := <-done; err != nil {
		t.Fatalf("claim after release: %v", err)
	}
	f.release(k)
}

func TestSweepProgress(t *testing.T) {
	space := test2x2x2Space(t)
	var calls int
	last := -1
	_, err := Sweep(context.Background(), space, WithWorkers(2),
		WithProgress(func(done, total int) {
			calls++
			if total != 8 {
				t.Errorf("progress total = %d, want 8", total)
			}
			if done <= last {
				t.Errorf("progress went backwards: %d after %d", done, last)
			}
			last = done
		}))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 8 || last != 8 {
		t.Errorf("progress called %d times ending at %d, want 8 ending at 8", calls, last)
	}
}

func TestStreamDeliversAll(t *testing.T) {
	space := test2x2x2Space(t)
	ch, total, err := Stream(context.Background(), space, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if total != 8 {
		t.Fatalf("total = %d, want 8", total)
	}
	seen := make(map[int]bool)
	for pt := range ch {
		if seen[pt.Point.Index] {
			t.Errorf("stream delivered index %d twice", pt.Point.Index)
		}
		seen[pt.Point.Index] = true
	}
	if len(seen) != 8 {
		t.Errorf("stream delivered %d points, want 8", len(seen))
	}
}

// depthSweepSpace mirrors the cmd/sweep default grid: the purifier-depth
// ablation on a 6×6 mesh (QFT-36, HomeBase, t=g=16 p=8, depths 1-5).
// The benchmarks below compare the seed's sequential loop against the
// concurrent sweep engine on exactly this workload.
func depthSweepSpace(tb testing.TB, gridN int) Space {
	grid := testGrid(tb, gridN)
	return Space{
		Grids:     []qnet.Grid{grid},
		Layouts:   []Layout{HomeBase},
		Resources: []Resources{{Teleporters: 16, Generators: 16, Purifiers: 8}},
		Programs:  []qnet.Program{qnet.QFT(grid.Tiles())},
		Depths:    []int{1, 2, 3, 4, 5},
	}
}

func benchmarkSweep(b *testing.B, gridN, workers int) {
	space := depthSweepSpace(b, gridN)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := Sweep(ctx, space, WithWorkers(workers))
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range points {
			if pt.Err != nil {
				b.Fatal(pt.Err)
			}
		}
	}
}

// BenchmarkSweepDefaultGridSequential is the seed's behavior: the
// cmd/sweep depth ablation run one configuration at a time.
func BenchmarkSweepDefaultGridSequential(b *testing.B) { benchmarkSweep(b, 6, 1) }

// BenchmarkSweepDefaultGridWorkers8 is the same grid through 8 sweep
// workers; on a multi-core host it completes close to
// max(point)/sum(point) of the sequential time.
func BenchmarkSweepDefaultGridWorkers8(b *testing.B) { benchmarkSweep(b, 6, 8) }

// Smaller variants for quick comparisons on constrained machines.
func BenchmarkSweepSmallGridSequential(b *testing.B) { benchmarkSweep(b, 4, 1) }
func BenchmarkSweepSmallGridWorkers8(b *testing.B)   { benchmarkSweep(b, 4, 8) }

package simulate

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/qnet"
	"repro/qnet/fault"
	"repro/qnet/route"
	"repro/qnet/trace"
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

// allIndices lists every point index of a space of n points, the shard
// that covers the whole space.
func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
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

// TestSweepInvalidPoint: a space invalid at two resource allocations
// fails Sweep and Stream, with or without a store, before any point
// runs, with the error of the first failing entry in order, whichever
// worker reaches an invalid entry first.
func TestSweepInvalidPoint(t *testing.T) {
	space := test2x2x2Space(t)
	space.Layouts = []Layout{HomeBase}
	good := space.Resources[0]
	space.Resources = []Resources{good, {Teleporters: 0, Generators: 16, Purifiers: 8}, good, {Teleporters: 16, Generators: 0, Purifiers: 8}}
	// Two seeds per allocation: points 2 and 3 have no teleporters,
	// points 6 and 7 no generators.
	pts, err := space.Points()
	if err != nil {
		t.Fatal(err)
	}
	pointErr := func(idx int, field string) string {
		t.Helper()
		_, err := space.Machine(pts[idx])
		var ce *qnet.ConfigError
		if !errors.As(err, &ce) || ce.Field != field {
			t.Fatalf("point %d: %v, want a %s *qnet.ConfigError", idx, err, field)
		}
		return err.Error()
	}
	noTeleporters, noGenerators := pointErr(2, "Teleporters"), pointErr(6, "Generators")
	outOfRange := (&qnet.ConfigError{Field: "indices", Value: len(pts),
		Reason: fmt.Sprintf("point index out of range [0,%d)", len(pts))}).Error()
	ctx := context.Background()
	for _, store := range []*Cache{nil, NewCache(0)} {
		for _, workers := range []int{1, 2, len(pts)} {
			for run := 0; run < 10; run++ {
				opts := []SweepOption{WithCache(store), WithWorkers(workers)}
				if _, err := Sweep(ctx, space, opts...); err == nil || err.Error() != noTeleporters {
					t.Fatalf("Sweep at %d workers: %v, want %s", workers, err, noTeleporters)
				}
				for _, tc := range []struct {
					indices []int
					want    string
				}{
					{[]int{0, 6, 1, 2}, noGenerators},
					{[]int{0, len(pts), 2, 6}, outOfRange},
				} {
					ch, err := Stream(ctx, space, tc.indices, nil, opts...)
					if ch != nil || err == nil || err.Error() != tc.want {
						t.Fatalf("Stream(%v) at %d workers: %v, want %s", tc.indices, workers, err, tc.want)
					}
				}
			}
		}
	}
}

// nestedLoopPoints expands a space with one loop per dimension, grids
// outermost and seeds innermost, each empty optional dimension at its
// default, and returns every point with the position in Programs of its
// program: the reference Space.point must decode to.
func nestedLoopPoints(sp Space) ([]Point, []int) {
	depths := sp.Depths
	if len(depths) == 0 {
		depths = []int{3}
	}
	routings := sp.Routings
	if len(routings) == 0 {
		routings = []route.Policy{nil}
	}
	faults := sp.Faults
	if len(faults) == 0 {
		faults = []fault.Spec{{}}
	}
	seeds := sp.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	var pts []Point
	var progs []int
	for _, grid := range sp.Grids {
		for _, layout := range sp.Layouts {
			for _, res := range sp.Resources {
				for pi, prog := range sp.Programs {
					for _, depth := range depths {
						for _, routing := range routings {
							for _, fs := range faults {
								for _, seed := range seeds {
									pts = append(pts, Point{
										Index:     len(pts),
										Grid:      grid,
										Layout:    layout,
										Resources: res,
										Program:   prog,
										Depth:     depth,
										Routing:   routing,
										Faults:    fs,
										Seed:      seed,
									})
									progs = append(progs, pi)
								}
							}
						}
					}
				}
			}
		}
	}
	return pts, progs
}

// optionMachine builds pt's machine through New: the space's options,
// then one option per field of the point.
func optionMachine(sp Space, pt Point) (*Machine, error) {
	opts := append(append([]Option(nil), sp.Options...),
		WithResources(pt.Resources.Teleporters, pt.Resources.Generators, pt.Resources.Purifiers),
		WithPurifyDepth(pt.Depth),
		WithRouting(pt.Routing),
		WithFaults(pt.Faults),
		WithSeed(pt.Seed))
	return New(pt.Grid, pt.Layout, opts...)
}

// TestExpandMatchesNestedLoops: Space.Points, Space.point and every
// entry of Space.Expand agree with one loop per dimension, field by
// field, program position included, on spaces where each optional
// dimension is empty, single or multiple.  Two programs share a name,
// so only the position tells their keys apart.  Every expanded machine
// has the configuration New gives the point through one option per
// field, and all of them share one flight group.
func TestExpandMatchesNestedLoops(t *testing.T) {
	named := qnet.QFT(8)
	named.Name = qnet.QFT(9).Name
	three, err := qnet.NewGrid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := qnet.NewGrid(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	type dims struct {
		depths   []int
		routings []route.Policy
		faults   []fault.Spec
		seeds    []int64
	}
	choices := []dims{
		{}, // every optional dimension empty
		{[]int{2}, []route.Policy{route.YXOrder()}, []fault.Spec{{Drop: 0.02}}, []int64{4}},
		{[]int{2, 1, 3}, []route.Policy{route.XYOrder(), nil}, []fault.Spec{{}, {Drop: 0.01}}, []int64{9, 5, 7}},
	}
	// The four base-3 digits of mask pick the case of each optional
	// dimension, so the 81 spaces cover every combination.
	for mask := 0; mask < 81; mask++ {
		pick := func(dim int) dims {
			digits := mask
			for range dim {
				digits /= 3
			}
			return choices[digits%3]
		}
		space := Space{
			Grids:     []qnet.Grid{three, wide},
			Layouts:   []Layout{MobileQubit, HomeBase},
			Resources: []Resources{{Teleporters: 16, Generators: 16, Purifiers: 8}, {Teleporters: 4, Generators: 2, Purifiers: 1}},
			Programs:  []qnet.Program{qnet.QFT(9), named},
			Depths:    pick(0).depths,
			Routings:  pick(1).routings,
			Faults:    pick(2).faults,
			Seeds:     pick(3).seeds,
			Options:   []Option{WithFailureRate(0.01), WithCache(NewCache(0))},
		}
		name := fmt.Sprintf("depths %v, routings %d, faults %v, seeds %v",
			space.Depths, len(space.Routings), space.Faults, space.Seeds)
		want, progs := nestedLoopPoints(space)
		if space.Size() != len(want) {
			t.Fatalf("%s: Size %d, want %d", name, space.Size(), len(want))
		}
		pts, err := space.Points()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pts, want) {
			t.Fatalf("%s: Points differ from the nested loops", name)
		}
		for i := range want {
			if pt, prog := space.point(i); !reflect.DeepEqual(pt, want[i]) || prog != progs[i] {
				t.Fatalf("%s: point(%d) = %+v, program %d; want %+v, program %d", name, i, pt, prog, want[i], progs[i])
			}
		}
		indices := make([]int, len(want))
		for i := range indices {
			indices[i] = len(want) - 1 - i
		}
		got, machines, keys, err := space.Expand(indices, nil, 3)
		if err != nil {
			t.Fatal(err)
		}
		for j, idx := range indices {
			if !reflect.DeepEqual(got[j], want[idx]) {
				t.Fatalf("%s: Expand entry %d = %+v, want point %d %+v", name, j, got[j], idx, want[idx])
			}
			ref, err := optionMachine(space, want[idx])
			if err != nil {
				t.Fatal(err)
			}
			m := machines[j]
			if !reflect.DeepEqual(m.cfg, ref.cfg) || m.store != ref.store {
				t.Fatalf("%s: point %d's machine differs from New's:\n got %+v\nwant %+v", name, idx, m.cfg, ref.cfg)
			}
			if keys[j] != keyFor(m.cfg, space.Programs[progs[idx]]) {
				t.Fatalf("%s: point %d's key is not its program's (position %d)", name, idx, progs[idx])
			}
			if m.flights != machines[0].flights || m.flights == ref.flights {
				t.Fatalf("%s: entry %d does not share the expansion's flight group alone", name, j)
			}
		}
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
	total := space.Size()
	ch, err := Stream(context.Background(), space, allIndices(total), nil, WithWorkers(3))
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

// TestStreamRejectsBadIndices: an index outside the space is a
// *qnet.ConfigError, returned before any listed point runs.
func TestStreamRejectsBadIndices(t *testing.T) {
	space := test2x2x2Space(t)
	var watched atomic.Int64
	watch := func() (*trace.Tracer, func()) {
		watched.Add(1)
		return nil, func() {}
	}
	for _, indices := range [][]int{{0, -1}, {0, 8}} {
		ch, err := Stream(context.Background(), space, indices, watch, WithWorkers(2))
		var ce *qnet.ConfigError
		if ch != nil || !errors.As(err, &ce) || ce.Value != indices[1] {
			t.Errorf("Stream(%v) = %v, %v; want no channel and a *qnet.ConfigError on index %d",
				indices, ch, err, indices[1])
		}
	}
	if n := watched.Load(); n != 0 {
		t.Errorf("rejected Streams simulated %d points", n)
	}
}

// TestStreamSubset: a shard streams exactly its listed points, under
// their space indices, with the points and results Sweep gives them.
func TestStreamSubset(t *testing.T) {
	space := test2x2x2Space(t)
	want, err := Sweep(context.Background(), space, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	indices := []int{6, 1, 3}
	ch, err := Stream(context.Background(), space, indices, nil, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int]SweepPoint)
	for sp := range ch {
		if _, dup := got[sp.Point.Index]; dup {
			t.Errorf("stream delivered index %d twice", sp.Point.Index)
		}
		got[sp.Point.Index] = sp
	}
	if len(got) != len(indices) {
		t.Errorf("stream delivered %d points, want %d", len(got), len(indices))
	}
	for _, idx := range indices {
		if sp, ok := got[idx]; !ok || !reflect.DeepEqual(sp, want[idx]) {
			t.Errorf("index %d: streamed %+v, Sweep gave %+v", idx, sp, want[idx])
		}
	}
}

// TestStreamWatchesSimulatedPointsOnly: watch fires once per point that
// simulates, and its tracer observes that run, but never for a point
// the store serves.  A second Stream over the warm cache watches
// nothing and serves every point.
func TestStreamWatchesSimulatedPointsOnly(t *testing.T) {
	space := test2x2x2Space(t)
	space.Options = nil // deterministic: both seeds of a configuration share one key
	cache := NewCache(0)
	var mu sync.Mutex
	var tracers []*trace.Tracer
	ended := 0
	watch := func() (*trace.Tracer, func()) {
		tr := trace.New(trace.Config{Interval: time.Millisecond})
		mu.Lock()
		defer mu.Unlock()
		tracers = append(tracers, tr)
		return tr, func() {
			mu.Lock()
			defer mu.Unlock()
			ended++
		}
	}
	stream := func() (cached int) {
		ch, err := Stream(context.Background(), space, allIndices(space.Size()), watch, WithCache(cache), WithWorkers(3))
		if err != nil {
			t.Fatal(err)
		}
		for sp := range ch {
			if sp.Err != nil {
				t.Fatalf("point %d: %v", sp.Point.Index, sp.Err)
			}
			if sp.Cached {
				cached++
			}
		}
		return cached
	}
	if cached := stream(); cached != 4 || len(tracers) != 4 || ended != 4 {
		t.Errorf("cold stream: %d cached, %d watched, %d ended; want 4 of each", cached, len(tracers), ended)
	}
	for i, tr := range tracers {
		if tr.Samples() == 0 {
			t.Errorf("watched run %d left its tracer empty", i)
		}
	}
	if cached := stream(); cached != 8 || len(tracers) != 4 {
		t.Errorf("warm stream: %d cached, %d more watched; want 8 cached, none watched", cached, len(tracers)-4)
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

package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"repro/qnet"
	"repro/qnet/distrib"
	"repro/qnet/fault"
	"repro/qnet/route"
	"repro/qnet/simulate"
	"repro/qnet/stats"
)

// outcome is what one op produced: every simulated Result in expansion
// order, which of them a store served, and the operational report of a
// distributed sweep.
type outcome struct {
	results []simulate.Result
	cached  []bool
	// depths are the purifier depths of the results' points, which fix
	// how many EPR pairs make up one batch.
	depths []int
	report *distrib.Report
	// hottest is the teleporter utilization of the busiest tile; only
	// detailed single runs measure it.
	hottest float64
}

// fixture is a workload's state between ops.  prepare runs before
// every op, untimed.  op is the timed part: one outcome per call into
// the program.  With traced set it calls through the traced variants
// that set-up built around the recorder, so a traced op makes the same
// calls as an untraced one, plus the spans.
type fixture interface {
	prepare() error
	op(ctx context.Context, traced bool) ([]outcome, error)
	close()
}

// detailer is a fixture that can run once more, untimed, with per-tile
// detail.
type detailer interface {
	detail(ctx context.Context) (outcome, error)
}

// workload is one set of inputs the benchmark runs.  See README.md for
// why each one is in the set.
type workload struct {
	name string
	// pin names the testdata file holding the expected output; the two
	// distributed workloads share one.
	pin string
	// workers is how many goroutines simulate concurrently: the
	// denominator of simulate.worker_busy_frac, and how many goroutines
	// run the reference loop.
	workers int
	// setup builds the fixture; rec is nil in the untraced pass.
	setup func(ctx context.Context, seed int64, rec *recorder) (fixture, error)
	// reference computes the expected output in a single process; pins
	// are recorded from it.
	reference func(ctx context.Context, seed int64) ([]simulate.Result, error)
}

// fig16Area is Figure 16's per-tile area budget t+g+p.  Both single-run
// workloads use its t = g = 4p split, 21/21/5.
const fig16Area = 48

var workloads = []workload{
	qftWorkload("qft256_mobile", qftSpec{grid: 16, layout: simulate.MobileQubit, routing: route.XYOrder()}),
	qftWorkload("qft100_home_lossy", qftSpec{grid: 10, layout: simulate.HomeBase, routing: route.LeastCongested(), faults: fault.Spec{Drop: 0.005}}),
	{
		name:    "fig16_sweep",
		pin:     "fig16_sweep",
		workers: runtime.NumCPU(),
		setup: func(_ context.Context, seed int64, rec *recorder) (fixture, error) {
			return &fig16Fixture{space: fig16Space(seed), rec: rec}, nil
		},
		reference: func(ctx context.Context, seed int64) ([]simulate.Result, error) {
			return localSweep(ctx, fig16Space(seed))
		},
	},
	distribWorkload("distrib_http_cold", false),
	distribWorkload("distrib_http_warm", true),
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// seedSet maps the benchmark seed to a sweep's seed dimension: {1..n}
// at the pinned seed, and a disjoint block of n seeds for every other
// seed.
func seedSet(seed int64, n int) []int64 {
	base := (seed - pinSeed) * int64(n)
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i) + 1
	}
	return out
}

func fig16Allocation(ratio int) simulate.Resources {
	a, err := simulate.Allocations(fig16Area, []int{ratio})
	if err != nil {
		panic(err) // constant arguments
	}
	return simulate.AllocationResources(a[0])
}

// qftSpec is one QFT run on a square mesh at the t=g=4p allocation.
type qftSpec struct {
	grid    int
	layout  simulate.Layout
	routing route.Policy
	faults  fault.Spec
}

func (q qftSpec) machine(seed int64, routing route.Policy) (*simulate.Machine, error) {
	g, err := qnet.NewGrid(q.grid, q.grid)
	if err != nil {
		return nil, err
	}
	r := fig16Allocation(4)
	return simulate.New(g, q.layout,
		simulate.WithResources(r.Teleporters, r.Generators, r.Purifiers),
		simulate.WithRouting(routing),
		simulate.WithFaults(q.faults),
		simulate.WithSeed(seed))
}

func (q qftSpec) program() qnet.Program { return qnet.QFT(q.grid * q.grid) }

func qftWorkload(name string, q qftSpec) workload {
	return workload{
		name:    name,
		pin:     name,
		workers: 1,
		setup: func(_ context.Context, seed int64, rec *recorder) (fixture, error) {
			f := &qftFixture{rec: rec, prog: q.program()}
			var err error
			if f.m, err = q.machine(seed, q.routing); err != nil {
				return nil, err
			}
			if rec != nil {
				// The traced machine differs only in routing through the
				// timing wrapper; its Result must equal the untraced one.
				if f.traced, err = q.machine(seed, tracedPolicy(q.routing, rec)); err != nil {
					return nil, err
				}
			}
			return f, nil
		},
		reference: func(ctx context.Context, seed int64) ([]simulate.Result, error) {
			m, err := q.machine(seed, q.routing)
			if err != nil {
				return nil, err
			}
			res, err := m.Run(ctx, q.program())
			return []simulate.Result{res}, err
		},
	}
}

type qftFixture struct {
	m, traced *simulate.Machine
	rec       *recorder
	prog      qnet.Program
}

func (f *qftFixture) prepare() error { return nil }
func (f *qftFixture) close()         {}

func (f *qftFixture) op(ctx context.Context, traced bool) ([]outcome, error) {
	m := f.m
	if traced {
		m = f.traced
		id := f.rec.open("simulate.Machine.Run")
		defer f.rec.close(id)
	}
	res, err := m.Run(ctx, f.prog)
	return []outcome{{results: []simulate.Result{res}, cached: []bool{false}, depths: []int{3}}}, err
}

func (f *qftFixture) detail(ctx context.Context) (outcome, error) {
	res, d, err := f.m.RunDetailed(ctx, f.prog)
	out := outcome{results: []simulate.Result{res}, cached: []bool{false}, depths: []int{3}}
	if d != nil {
		_, out.hottest = d.HottestTile()
	}
	return out, err
}

// fig16Space is the default `figures -fig 16` space: 8×8 QFT-64 under
// both layouts, the t=g=p=1024 baseline plus t=g=1p/2p/4p/8p, five
// seeds, no failure injection.  Deterministic points share cache keys
// across seeds, so each op simulates 10 points and serves 40 from its
// cache.
func fig16Space(seed int64) simulate.Space {
	g, err := qnet.NewGrid(8, 8)
	if err != nil {
		panic(err) // constant arguments
	}
	res := []simulate.Resources{{Teleporters: 1024, Generators: 1024, Purifiers: 1024}}
	for _, r := range []int{1, 2, 4, 8} {
		res = append(res, fig16Allocation(r))
	}
	return simulate.Space{
		Grids:     []qnet.Grid{g},
		Layouts:   []simulate.Layout{simulate.HomeBase, simulate.MobileQubit},
		Resources: res,
		Programs:  []qnet.Program{qnet.QFT(g.Tiles())},
		Seeds:     seedSet(seed, 5),
		Options:   []simulate.Option{simulate.WithFailureRate(0)},
	}
}

type fig16Fixture struct {
	space simulate.Space
	rec   *recorder
}

func (f *fig16Fixture) prepare() error { return nil }
func (f *fig16Fixture) close()         {}

// op sweeps into a fresh in-memory cache, as the figure does on every
// run; the traced op wraps that cache and the default routing policy.
func (f *fig16Fixture) op(ctx context.Context, traced bool) ([]outcome, error) {
	cache := simulate.NewCache(0)
	space := f.space
	store := simulate.WithCache(cache)
	if traced {
		ts := newTimedStore("simulate.store", cache, true)
		ts.rec.Store(f.rec)
		store = simulate.WithStore(ts)
		space.Routings = []route.Policy{tracedPolicy(nil, f.rec)}
		id := f.rec.open("simulate.Sweep")
		defer f.rec.close(id)
	}
	points, err := simulate.Sweep(ctx, space, store, simulate.WithWorkers(runtime.NumCPU()))
	if err != nil {
		return nil, err
	}
	// Fold the seed dimension the way the figure does.
	if n, want := len(stats.Group(points)), len(space.Layouts)*len(space.Resources); n != want {
		return nil, fmt.Errorf("stats.Group folded %d ensembles, want %d", n, want)
	}
	out, err := sweepOutcome(points)
	return []outcome{out}, err
}

// sweepOutcome collects a sweep's points, failing on any point error.
func sweepOutcome(points []simulate.SweepPoint) (outcome, error) {
	var out outcome
	for _, pt := range points {
		if pt.Err != nil {
			return outcome{}, fmt.Errorf("point %d: %w", pt.Point.Index, pt.Err)
		}
		out.results = append(out.results, pt.Result)
		out.cached = append(out.cached, pt.Cached)
		out.depths = append(out.depths, pt.Point.Depth)
	}
	return out, nil
}

// localSweep runs a space in this process and returns its Results.
func localSweep(ctx context.Context, space simulate.Space) ([]simulate.Result, error) {
	points, err := simulate.Sweep(ctx, space, simulate.WithWorkers(runtime.NumCPU()))
	if err != nil {
		return nil, err
	}
	out, err := sweepOutcome(points)
	return out.results, err
}

// distribSpec is the distributed sweep space: 4×4 QFT-16 × 2 layouts ×
// 2 allocations × depths {1,2,3} × 4 routing policies × 4 seeds, 1%
// purification failure, so every one of the 192 points has its own
// cache key.
func distribSpec(seed int64) distrib.SpaceSpec {
	g, err := qnet.NewGrid(4, 4)
	if err != nil {
		panic(err) // constant arguments
	}
	return distrib.SpaceSpec{
		Grids:       []qnet.Grid{g},
		Layouts:     distrib.LayoutNames([]simulate.Layout{simulate.HomeBase, simulate.MobileQubit}),
		Resources:   []simulate.Resources{fig16Allocation(1), fig16Allocation(4)},
		Programs:    []qnet.Program{qnet.QFT(g.Tiles())},
		Depths:      []int{1, 2, 3},
		Routings:    route.Names(),
		Seeds:       seedSet(seed, 4),
		FailureRate: 0.01,
	}
}

// distribWorkers is the fleet size; each worker simulates one point at
// a time, so the fleet runs no more simulations than this box has CPUs.
const distribWorkers = 2

// warmSweeps is how many re-sweeps make one warm op.  A single re-sweep
// takes about 10 ms; fifty make an op long enough to time against the
// reference loop.
const warmSweeps = 50

func distribWorkload(name string, warm bool) workload {
	return workload{
		name:    name,
		pin:     "distrib_http",
		workers: distribWorkers,
		setup: func(ctx context.Context, seed int64, rec *recorder) (fixture, error) {
			return newDistribFixture(ctx, seed, warm, rec)
		},
		// The pin comes from a single-process sweep, so every op checks
		// that the distributed result equals the local one.
		reference: func(ctx context.Context, seed int64) ([]simulate.Result, error) {
			space, err := distribSpec(seed).Space()
			if err != nil {
				return nil, err
			}
			return localSweep(ctx, space)
		},
	}
}

// distribFixture is a coordinator and a fleet of HTTP workers on
// loopback listeners.  The workers share one disk-backed store, served
// by a StoreServer and reached through RemoteStore, as `sweep
// -store-listen -cache-dir` sets it up.
type distribFixture struct {
	spec distrib.SpaceSpec
	warm bool
	rec  *recorder
	dir  string
	// cacheDir is the current store's directory; cold ops start each
	// sweep from a fresh one.
	cacheDir string
	stores   int
	coord    *distrib.Coordinator
	// Timing wrappers: behind the StoreServer, the coordinator's own
	// handle on the shared store, and each worker's RemoteStore.
	server, shared *timedStore
	remotes        []*timedStore

	workers []*distrib.Server
	https   []*http.Server
	serving sync.WaitGroup
}

func newDistribFixture(ctx context.Context, seed int64, warm bool, rec *recorder) (*distribFixture, error) {
	f := &distribFixture{spec: distribSpec(seed), warm: warm, rec: rec}
	if err := f.start(ctx); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *distribFixture) start(ctx context.Context) error {
	var err error
	if f.dir, err = os.MkdirTemp("", "qnetbench-"); err != nil {
		return err
	}
	if err := f.freshStore(); err != nil {
		return err
	}
	storeURL, err := f.serve(distrib.NewStoreServer(f.server).Handler())
	if err != nil {
		return err
	}
	var urls []string
	for i := 0; i < distribWorkers; i++ {
		remote := newTimedStore("distrib.remote", distrib.NewRemoteStore(storeURL), true)
		f.remotes = append(f.remotes, remote)
		srv := distrib.NewServer(distrib.NewWorker(
			distrib.WithWorkerParallelism(1),
			distrib.WithWorkerStore(remote)))
		f.workers = append(f.workers, srv)
		url, err := f.serve(srv.Handler())
		if err != nil {
			return err
		}
		urls = append(urls, url)
	}
	// The workers reach the store themselves, so jobs carry no store
	// URL; the coordinator checks fresh results against the same store.
	if f.coord, err = distrib.NewCoordinator(distrib.NewHTTPTransport(), urls,
		distrib.WithSharedStore(f.shared, "")); err != nil {
		return err
	}
	if f.warm {
		// Fill the store once; every warm op re-sweeps against it.
		if _, err := f.sweep(ctx); err != nil {
			return fmt.Errorf("filling the store: %w", err)
		}
	}
	return nil
}

// serve starts an HTTP server for h on a loopback port and returns its
// base URL.
func (f *distribFixture) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.https = append(f.https, hs)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// freshStore points the fleet at an empty disk cache in a new
// directory and deletes the previous one.
func (f *distribFixture) freshStore() error {
	prev := f.cacheDir
	f.stores++
	f.cacheDir = filepath.Join(f.dir, fmt.Sprintf("store-%d", f.stores))
	cache, err := simulate.NewDiskCache(f.cacheDir, 0)
	if err != nil {
		return err
	}
	if f.server == nil {
		f.server = newTimedStore("distrib.server", cache, false)
		f.shared = newTimedStore("simulate.store", cache, false)
	} else {
		f.server.setInner(cache)
		f.shared.setInner(cache)
	}
	if prev != "" {
		return os.RemoveAll(prev)
	}
	return nil
}

func (f *distribFixture) prepare() error {
	if f.warm {
		return nil
	}
	return f.freshStore()
}

// op is one sweep against an empty store when cold, and warmSweeps
// re-sweeps against the full store when warm.
func (f *distribFixture) op(ctx context.Context, traced bool) ([]outcome, error) {
	if traced {
		stores := append([]*timedStore{f.server, f.shared}, f.remotes...)
		for _, s := range stores {
			s.rec.Store(f.rec)
		}
		defer func() {
			for _, s := range stores {
				s.rec.Store(nil)
			}
		}()
	}
	n := 1
	if f.warm {
		n = warmSweeps
	}
	outs := make([]outcome, 0, n)
	for i := 0; i < n; i++ {
		var id int
		if traced {
			id = f.rec.open("distrib.Coordinator.Sweep")
		}
		out, err := f.sweep(ctx)
		if traced {
			f.rec.close(id)
		}
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	return outs, nil
}

func (f *distribFixture) sweep(ctx context.Context) (outcome, error) {
	points, rep, err := f.coord.Sweep(ctx, f.spec)
	if err != nil {
		return outcome{}, err
	}
	if rep.Mismatches > 0 {
		return outcome{}, fmt.Errorf("%d workers' results disagree with the store: %s",
			rep.Mismatches, strings.Join(rep.MismatchDetails, "; "))
	}
	out, err := sweepOutcome(points)
	out.report = rep
	return out, err
}

func (f *distribFixture) close() {
	for _, srv := range f.workers {
		srv.Close()
	}
	for _, hs := range f.https {
		hs.Close()
	}
	f.serving.Wait()
	if f.dir != "" {
		if err := os.RemoveAll(f.dir); err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintln(os.Stderr, "qnetbench:", err)
		}
	}
}

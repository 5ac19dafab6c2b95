package simulate

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/netsim"

	"repro/qnet"
	"repro/qnet/fault"
	"repro/qnet/route"
	"repro/qnet/trace"
)

// Resources is one per-node resource allocation: t teleporters, g
// generators and p queue purifiers.
type Resources struct {
	Teleporters, Generators, Purifiers int
}

// SeedRange returns the canonical n-seed ensemble {1, 2, ..., n} used
// throughout this repository for Space.Seeds (never less than one
// seed).  Centralizing it keeps commands, examples and figures on the
// same ensemble, so their cached results share content keys.
func SeedRange(n int) []int64 {
	if n < 1 {
		n = 1
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// flightGroup tracks content keys currently being simulated, so
// duplicate in-flight points can wait for the first run instead of
// repeating it.  A sweep feeds every distinct key before any duplicate,
// so its workers block here only once no distinct key is left to start.
type flightGroup struct {
	mu       sync.Mutex
	inflight map[Key]chan struct{}
}

// newFlightGroup returns an empty flight group.
func newFlightGroup() *flightGroup {
	return &flightGroup{inflight: make(map[Key]chan struct{})}
}

// claim takes the flight for k, waiting while another goroutine owns
// it.  A nil return means the caller owns the flight and must release
// it; if ctx ends first, claim returns ctx's error and owns nothing.
func (f *flightGroup) claim(ctx context.Context, k Key) error {
	for {
		f.mu.Lock()
		wait, busy := f.inflight[k]
		if !busy {
			f.inflight[k] = make(chan struct{})
		}
		f.mu.Unlock()
		if !busy {
			return nil
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// release ends the caller's flight, waking every waiter.
func (f *flightGroup) release(k Key) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.inflight[k]; ok {
		close(ch)
		delete(f.inflight, k)
	}
}

// Allocation is one point of the paper's Figure 16 resource sweep:
// teleporters and generators are scaled to Ratio times the purifier
// count while the total area t+g+p stays fixed.
type Allocation = netsim.Allocation

// Allocations builds the Figure 16 configurations: for each ratio r the
// area budget is split so t = g ≈ r·p and t+g+p = area.
func Allocations(area int, ratios []int) ([]Allocation, error) {
	return netsim.SweepAllocations(area, ratios)
}

// AllocationResources converts an allocation to a sweep resource point.
func AllocationResources(a Allocation) Resources {
	return Resources{Teleporters: a.T, Generators: a.G, Purifiers: a.P}
}

// Space is a parameter grid to sweep: the cross product of every
// populated dimension.  Grids, Layouts, Resources and Programs are
// required; Depths defaults to {3} (the paper's purifier depth),
// Routings to {nil} (dimension-order routing), Faults to {the zero
// Spec} (a healthy mesh) and Seeds to {0}.  Options are applied to
// every machine before the per-point settings, so device parameters,
// code level, hop length or failure injection can be varied
// machine-wide.
type Space struct {
	Grids     []qnet.Grid
	Layouts   []Layout
	Resources []Resources
	Programs  []qnet.Program
	Depths    []int
	Routings  []route.Policy
	Faults    []fault.Spec
	Seeds     []int64
	Options   []Option
}

// Size returns the number of points the space expands to.
func (sp Space) Size() int {
	return len(sp.Grids) * len(sp.Layouts) * len(sp.Resources) * len(sp.Programs) *
		max(len(sp.Depths), 1) * max(len(sp.Routings), 1) * max(len(sp.Faults), 1) * max(len(sp.Seeds), 1)
}

// Point is one expanded configuration of a Space.  Index is the point's
// position in the deterministic expansion order (grids ≫ layouts ≫
// resources ≫ programs ≫ depths ≫ routings ≫ faults ≫ seeds, last
// dimension fastest).
type Point struct {
	Index     int
	Grid      qnet.Grid
	Layout    Layout
	Resources Resources
	Program   qnet.Program
	Depth     int
	Routing   route.Policy
	Faults    fault.Spec
	Seed      int64
}

// RoutingName returns the canonical name of the point's routing policy
// ("xy" for the nil default), the form cache keys and result grouping
// use.
func (p Point) RoutingName() string { return route.NameOf(p.Routing) }

// FaultsName returns the canonical rendering of the point's fault spec
// ("none" for a healthy mesh), the form result grouping and CLI tables
// use.
func (p Point) FaultsName() string { return p.Faults.String() }

// SweepPoint is one finished run of a sweep: the point, its result, and
// the error if the run failed (a failed point does not abort the sweep).
// Cached reports that the result was served from the sweep's Cache
// instead of being simulated.
type SweepPoint struct {
	Point  Point
	Result Result
	Err    error
	Cached bool
}

// Summary aggregates a finished sweep: point counts, cache traffic and
// failures.  It is computed from the returned points by Summarize, so
// it works for Sweep and for a drained Stream alike.
type Summary struct {
	// Points is the number of finished points summarized.
	Points int
	// CacheHits is how many of them were served from the cache.
	CacheHits int
	// Failed is how many ended with a non-nil Err.
	Failed int
	// CorruptEntries is the store's corrupt-entry count at summary
	// time (zero unless the summary was built by SummarizeStore with a
	// store that reports rot, e.g. a disk cache with unparseable
	// files).  Fleet-shared stores use it to detect on-disk damage
	// that would otherwise silently degrade into misses.
	CorruptEntries uint64
}

// HitRate returns CacheHits / Points, or 0 for an empty sweep.
func (s Summary) HitRate() float64 {
	if s.Points == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.Points)
}

// String renders the summary compactly ("20 points, 15 cached (75.0%),
// 0 failed"), flagging corrupt store entries when any were seen.
func (s Summary) String() string {
	out := fmt.Sprintf("%d points, %d cached (%.1f%%), %d failed",
		s.Points, s.CacheHits, 100*s.HitRate(), s.Failed)
	if s.CorruptEntries > 0 {
		out += fmt.Sprintf(", %d corrupt store entries", s.CorruptEntries)
	}
	return out
}

// Summarize tallies a sweep's finished points into a Summary.
func Summarize(points []SweepPoint) Summary {
	var s Summary
	for _, pt := range points {
		s.Points++
		if pt.Cached {
			s.CacheHits++
		}
		if pt.Err != nil {
			s.Failed++
		}
	}
	return s
}

// SummarizeStore is Summarize folded together with the sweep's store
// health: the store's corrupt-entry count is copied into the summary,
// so a fleet-shared store's rot surfaces next to the hit rate instead
// of hiding inside silently-degraded misses.  A nil store is allowed
// and behaves like plain Summarize.
func SummarizeStore(points []SweepPoint, st Store) Summary {
	s := Summarize(points)
	if st != nil {
		s.CorruptEntries = st.Stats().CorruptEntries
	}
	return s
}

// Points expands the space into its full point list in the
// deterministic order documented on Point.Index.  The expansion is a
// pure function of the space's dimensions, so two processes expanding
// equal spaces agree on every index — the property qnet/distrib relies
// on to ship shards as bare index lists.
func (sp Space) Points() ([]Point, error) {
	if err := sp.check(); err != nil {
		return nil, err
	}
	pts := make([]Point, sp.Size())
	for i := range pts {
		pts[i], _ = sp.point(i)
	}
	return pts, nil
}

// Machine builds the validated Machine for one expanded point of the
// space, exactly as Sweep does for its workers: the space's Options
// first, then the point's fields.  It has a flight group of its own.
func (sp Space) Machine(pt Point) (*Machine, error) {
	return newSpec(sp.Options).at(pt).build(newFlightGroup())
}

// check reports the first empty required dimension.
func (sp Space) check() error {
	for _, dim := range []struct {
		name string
		n    int
	}{
		{"Grids", len(sp.Grids)},
		{"Layouts", len(sp.Layouts)},
		{"Resources", len(sp.Resources)},
		{"Programs", len(sp.Programs)},
	} {
		if dim.n == 0 {
			return &qnet.ConfigError{Field: "Space." + dim.name, Value: 0, Reason: "dimension must not be empty"}
		}
	}
	return nil
}

// point decodes index i, a mixed-radix number over the dimensions in
// the order of Point.Index, last dimension fastest, into its point and
// the position of its program in Programs.  An empty optional dimension
// takes no digit and leaves the point at its default.
func (sp Space) point(i int) (pt Point, prog int) {
	pt = Point{Index: i, Depth: 3}
	take(&i, sp.Seeds, &pt.Seed)
	take(&i, sp.Faults, &pt.Faults)
	take(&i, sp.Routings, &pt.Routing)
	take(&i, sp.Depths, &pt.Depth)
	prog = i % len(sp.Programs)
	take(&i, sp.Programs, &pt.Program)
	take(&i, sp.Resources, &pt.Resources)
	take(&i, sp.Layouts, &pt.Layout)
	take(&i, sp.Grids, &pt.Grid)
	return pt, prog
}

// take sets *v to the value of dimension vals at the lowest digit of
// *i, and strips that digit.  An empty dimension takes no digit and
// leaves *v as it is.
func take[T any](i *int, vals []T, v *T) {
	if n := len(vals); n > 0 {
		*v = vals[*i%n]
		*i /= n
	}
}

// at returns a copy of the spec with the point's grid, layout,
// resources, depth, routing, faults and seed set over the options'.
func (s machineSpec) at(pt Point) machineSpec {
	s.cfg.Grid, s.cfg.Layout = pt.Grid, pt.Layout
	s.cfg.Teleporters, s.cfg.Generators, s.cfg.Purifiers = pt.Resources.Teleporters, pt.Resources.Generators, pt.Resources.Purifiers
	s.cfg.PurifyDepth, s.cfg.Route, s.cfg.Faults, s.cfg.Seed = pt.Depth, pt.Routing, pt.Faults, pt.Seed
	return s
}

// Expand resolves the points of the space that indices lists, by
// Point.Index, as Sweep and Stream do before any of them runs: it
// decodes only those points, builds every point's validated Machine
// from Space.Options applied once, and returns the points, the
// machines and their keys, each in the order of indices.  A non-nil
// store replaces the one Space.Options attached, if any.  A point
// whose machine then has a store gets the key Machine.CacheKey would
// give it, and any other point gets the zero Key: a storeless
// expansion hashes nothing.  The keys' device part is serialized once,
// and each program's fingerprint once, however many points run it.
// The machines are allocated as one slice, and the points are spread
// over min(workers, len(indices)) goroutines (at least one worker).
//
// The machines share one flight group, so when in-flight points share
// a key (say the seeds of a deterministic configuration, whose keys
// canonicalize the seed away) only the first simulates and the rest
// take its stored result: one miss per distinct key and one hit per
// duplicate, whatever the worker count or order.
//
// The error is the first failing entry's, in the order of indices, as
// if the entries were resolved one by one: an index out of range, an
// invalid configuration, or a tracer in Space.Options.
func (sp Space) Expand(indices []int, store Store, workers int) ([]Point, []*Machine, []Key, error) {
	if err := sp.check(); err != nil {
		return nil, nil, nil, err
	}
	base := newSpec(sp.Options)
	if store != nil {
		base.store = store
	}
	flights := newFlightGroup()
	size := sp.Size()
	n := len(indices)
	pts := make([]Point, n)
	ms := make([]Machine, n)
	machines := make([]*Machine, n)
	keys := make([]Key, n)
	fps := make([]fingerprint, len(sp.Programs))
	// No point sets the device, so its part of every key is formatted
	// once.
	var device []byte
	if base.store != nil {
		device = appendDevice(nil, base.cfg.Params)
	}
	workers = min(max(workers, 1), n)
	// Worker w resolves the w-th contiguous run of entries and stops at
	// its first failure, so the first worker with an error holds the
	// first failing entry's.
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			var buf []byte
			for i := w * n / workers; i < (w+1)*n/workers; i++ {
				idx := indices[i]
				if idx < 0 || idx >= size {
					errs[w] = &qnet.ConfigError{Field: "indices", Value: idx,
						Reason: fmt.Sprintf("point index out of range [0,%d)", size)}
					return
				}
				pt, prog := sp.point(idx)
				m := &ms[i]
				var err error
				if *m, err = base.at(pt).machine(flights); err != nil {
					errs[w] = err
					return
				}
				if m.cfg.Trace != nil {
					errs[w] = &qnet.ConfigError{Field: "Space.Options", Value: "WithTrace",
						Reason: "a Tracer records one run at a time, so a sweep's points cannot share one; " +
							"trace a point through Space.Machine(pt), then Machine.WithTrace"}
					return
				}
				if m.store != nil {
					keys[i], buf = fps[prog].key(buf, device, m.cfg, sp.Programs[prog])
				}
				pts[i], machines[i] = pt, m
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return pts, machines, keys, nil
}

// SweepOption configures a sweep.  WithCache and WithStore satisfy both
// SweepOption and Option, so the same store attachment works on a
// Machine and on a Sweep.
type SweepOption interface {
	applySweep(*sweepConfig)
}

// sweepOptionFunc adapts a plain function to the SweepOption interface.
type sweepOptionFunc func(*sweepConfig)

func (f sweepOptionFunc) applySweep(c *sweepConfig) { f(c) }

type sweepConfig struct {
	workers  int
	progress func(done, total int)
	store    Store
}

// WithWorkers sets the worker-goroutine count.  Values below 1 (and the
// default) mean GOMAXPROCS.
func WithWorkers(n int) SweepOption {
	return sweepOptionFunc(func(c *sweepConfig) { c.workers = n })
}

// WithProgress installs a progress callback invoked after every finished
// point with the completed and total counts.  Sweep calls it from the
// collecting goroutine, so the callback needs no locking; Stream ignores
// it (the drained channel is the progress signal).
func WithProgress(fn func(done, total int)) SweepOption {
	return sweepOptionFunc(func(c *sweepConfig) { c.progress = fn })
}

// CacheOption attaches a result store and satisfies both Option (a
// machine consults the store on every Run) and SweepOption (every
// point of the sweep consults it, with single-flight dedup across
// workers).  Attached through Space.Options instead, it reaches every
// point's machine and so serves the sweep the same way.
type CacheOption interface {
	Option
	SweepOption
}

// cacheOption is the shared implementation of WithCache and WithStore.
type cacheOption struct{ store Store }

func (o cacheOption) applyMachine(s *machineSpec) { s.store = o.store }

func (o cacheOption) applySweep(cfg *sweepConfig) { cfg.store = o.store }

// WithCache installs a result cache: every point's content hash
// (Machine.CacheKey) is looked up before simulating, successful runs
// are stored back, and served points are marked SweepPoint.Cached.  The
// same cache can be shared across machines and sweeps — and, when built
// with NewDiskCache, across processes — so regenerating a figure after
// changing one dimension of its space only simulates the new points.
// A nil cache attaches no store.
func WithCache(c *Cache) CacheOption {
	if c == nil {
		return cacheOption{}
	}
	return cacheOption{store: c}
}

// Sweep expands the space and runs every point, fanning the runs out
// across worker goroutines.  Each point gets its own Machine and its own
// per-run RNG seeded from the point's seed, so results are independent
// of worker count and scheduling: a sweep is exactly as reproducible as
// its points.  With a store attached, points sharing a content key
// simulate once: workers take the first point of every distinct key,
// in index order, before any duplicate, so distinct simulations run
// side by side and the duplicates are then served from the store.
// Results are returned in expansion order.  Per-point simulation
// failures are recorded in SweepPoint.Err; Sweep itself returns an
// error only for an invalid space or a cancelled context (alongside
// the points finished before cancellation).
func Sweep(ctx context.Context, space Space, opts ...SweepOption) ([]SweepPoint, error) {
	cfg := sweepOptions(opts)
	total := space.Size()
	all := make([]int, total)
	for i := range all {
		all[i] = i
	}
	ch, err := stream(ctx, space, all, nil, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, 0, total)
	for sp := range ch {
		out = append(out, sp)
		if cfg.progress != nil {
			cfg.progress(len(out), total)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Point.Index < out[j].Point.Index })
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// Stream runs the points of the space that indices lists, by
// Point.Index, and delivers each over the returned channel as it
// finishes, in completion order: one shard of a sweep, as a
// qnet/distrib worker runs it.  Only the listed points have their
// machines built and their keys hashed, and they are dispatched in
// Sweep's order (every distinct key before its duplicates).  A negative
// or out-of-range index is a *qnet.ConfigError, returned before any
// point runs.
//
// watch, when non-nil, is called just before a point simulates, after
// its store lookup missed; the tracer it returns (nil for none)
// observes that run, and done is called when the run ends.  A point
// served from the store never reaches watch.
//
// The channel closes when every listed point has been delivered or the
// context is cancelled.  The caller must either drain the channel or
// cancel ctx; abandoning the channel mid-stream leaves the worker
// goroutines blocked on their sends for the life of ctx.
func Stream(ctx context.Context, space Space, indices []int, watch func() (tr *trace.Tracer, done func()), opts ...SweepOption) (<-chan SweepPoint, error) {
	return stream(ctx, space, indices, watch, sweepOptions(opts))
}

func sweepOptions(opts []SweepOption) sweepConfig {
	var cfg sweepConfig
	for _, opt := range opts {
		opt.applySweep(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	return cfg
}

func stream(ctx context.Context, space Space, indices []int, watch func() (*trace.Tracer, func()), cfg sweepConfig) (<-chan SweepPoint, error) {
	// Every listed point's machine is validated, and its key hashed,
	// before any simulation work is spent.
	pts, machines, keys, err := space.Expand(indices, cfg.store, cfg.workers)
	if err != nil {
		return nil, err
	}

	// Feed the first point of every distinct key, in index order, before
	// any duplicate.  Seeds are the fastest dimension, so in index order
	// the seeds of a deterministic configuration (one key) arrive
	// together, and every worker but one would wait in the expansion's
	// flight group for the key's single run.  Duplicates, in index order, come last:
	// by then their keys are stored or in flight.  Without a store every
	// point is distinct and the order is the index order.
	order := make([]int, 0, len(pts))
	var dups []int
	seen := make(map[Key]bool)
	for i, m := range machines {
		if m.store != nil {
			if seen[keys[i]] {
				dups = append(dups, i)
				continue
			}
			seen[keys[i]] = true
		}
		order = append(order, i)
	}
	order = append(order, dups...)

	workers := cfg.workers
	if workers > len(pts) {
		workers = len(pts)
	}
	jobs := make(chan int)
	results := make(chan SweepPoint, workers)

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				// The explicit Err checks (here, after the run and in the
				// feeder) make cancellation deterministic: a select with a
				// ready send and a closed Done channel picks randomly,
				// which would let an already-cancelled sweep deliver
				// stray points.
				if ctx.Err() != nil {
					return
				}
				m := machines[i]
				res, cached, err := m.run(ctx, m.cfg, pts[i].Program, keys[i], watch)
				if ctx.Err() != nil {
					return
				}
				select {
				case results <- SweepPoint{Point: pts[i], Result: res, Err: err, Cached: cached}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for _, i := range order {
			if ctx.Err() != nil {
				return
			}
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()
	return results, nil
}

// Package perfbench is the repository's performance measurement layer:
// reusable benchmark bodies covering the discrete-event engine's hot
// operation (schedule plus step, over one delay, netsim's delay mix by
// delay and through Queue handles, and all-distinct delays), the
// resource and semaphore waiter cycles, a full 5x5 QFT simulation per
// layout and routing policy, a 12x12 HomeBase QFT-144 at the paper's
// allocation, cache-key derivation, the concurrent sweep engine on a
// small space and on Figure 16's, and the distributed sweep service
// cold and warm.
//
// The bodies are exported plain functions taking *testing.B so that two
// harnesses can share them: the conventional `go test -bench .` wrappers
// in this package's _test file, and cmd/bench, which runs them through
// testing.Benchmark and emits the machine-readable BENCH_qft.json the
// perf trajectory is tracked with.  Keeping one set of bodies guarantees
// the JSON numbers and the go-test numbers measure the same code.
package perfbench

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/qnet"
	"repro/qnet/distrib"
	"repro/qnet/route"
	"repro/qnet/simulate"
)

// benchGrid is the mesh edge of the full-run benchmarks: the 5x5 QFT
// workload of the parity goldens, big enough to exercise routing,
// contention and purification without making `go test -bench` minutes
// long.
const benchGrid = 5

// schedulePending is the steady-state backlog EngineSchedule and
// EngineScheduleDistinct maintain while churning events, approximating
// the pending-queue depth of a mid-size netsim run.
const schedulePending = 1024

// mixPending is EngineScheduleMix's steady backlog, near the peak of
// 413 pending events measured on a 16x16 MobileQubit QFT-256 run.
const mixPending = 400

// EngineSchedule measures the engine's core churn: one Schedule plus
// one Step per iteration against a steady backlog of schedulePending
// events, so both the push and the pop path are on the clock.  The
// backlog is filled with schedulePending distinct delays, but every
// iteration schedules one constant delay, so once the fill has run
// (after the first schedulePending iterations) it measures a single
// per-delay FIFO: the event queue's best case.
func EngineSchedule(b *testing.B) {
	e := sim.New()
	fn := func() {}
	for i := 0; i < schedulePending; i++ {
		e.Schedule(time.Duration(i+1)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(schedulePending*time.Microsecond, fn)
		e.Step()
	}
}

// EngineScheduleMix is EngineSchedule's churn over netsim's delay mix:
// a steady backlog of mixPending events whose delays are drawn from
// the mix measured on a 16x16 MobileQubit QFT-256 run at t=g=4p.
// There, 122, 122.6, 2 and 723.6 µs carry 26/26/23/23% of the 6.86M
// events; a tail of four more delays stands in for the other 61.
func EngineScheduleMix(b *testing.B) { benchStep(b, engineScheduleMixLoop) }

// EngineScheduleMixOn is EngineScheduleMix with every delay of the mix
// resolved once to a Queue handle and scheduled with ScheduleOn, as
// netsim's datapath schedules: the difference between the two is the
// cost of looking a delay's FIFO up.
func EngineScheduleMixOn(b *testing.B) { benchStep(b, engineScheduleMixOnLoop) }

// EngineScheduleDistinct is the event queue's worst case: a steady
// backlog of schedulePending events in which every event has a fresh
// random delay, so each Schedule opens a FIFO and the drained ones are
// swept for reuse.
func EngineScheduleDistinct(b *testing.B) { benchStep(b, engineScheduleDistinctLoop) }

// netsimMix returns EngineScheduleMix's delay mix in 1,000 equally
// likely slots.
func netsimMix() []time.Duration {
	const us, ns = time.Microsecond, time.Nanosecond
	var delays []time.Duration
	for _, d := range []struct {
		delay time.Duration
		slots int
	}{
		{122 * us, 260}, {122600 * ns, 259}, {2 * us, 235}, {723600 * ns, 233},
		{123200 * ns, 5}, {20 * us, 5}, {126600 * ns, 2}, {774 * us, 1},
	} {
		for i := 0; i < d.slots; i++ {
			delays = append(delays, d.delay)
		}
	}
	return delays
}

// engineScheduleMixLoop builds EngineScheduleMix's engine and returns
// one iteration of its churn.
func engineScheduleMixLoop() (func(), error) {
	e := sim.New()
	delays := netsimMix()
	fn := func() {}
	return churnLoop(e, mixPending, func(x uint64) {
		e.Schedule(delays[x%uint64(len(delays))], fn)
	}), nil
}

// engineScheduleMixOnLoop builds EngineScheduleMixOn's engine, with a
// Queue handle per slot of the mix, and returns one iteration of its
// churn.
func engineScheduleMixOnLoop() (func(), error) {
	e := sim.New()
	delays := netsimMix()
	queues := make([]sim.Queue, len(delays))
	for i, d := range delays {
		queues[i] = e.Queue(d)
	}
	fn := func() {}
	return churnLoop(e, mixPending, func(x uint64) {
		e.ScheduleOn(queues[x%uint64(len(queues))], runFunc, fn)
	}), nil
}

// runFunc runs a func() continuation scheduled in the call form, as
// Schedule does for its own.
func runFunc(a any) { a.(func())() }

// engineScheduleDistinctLoop builds EngineScheduleDistinct's engine
// and returns one iteration of its churn.  Delays are 30 random bits
// of nanoseconds (up to ~1.07 s), so a repeat among the delays an
// engine holds is rare enough to ignore.
func engineScheduleDistinctLoop() (func(), error) {
	e := sim.New()
	fn := func() {}
	return churnLoop(e, schedulePending, func(x uint64) {
		e.Schedule(time.Duration(1+x>>34), fn)
	}), nil
}

// churnLoop fills engine e with pending events and returns one
// iteration of its churn: schedule one event, then step one.  Each
// event is scheduled by schedule(x) for the next x of a xorshift
// stream.  The churn runs 16 backlogs' worth of iterations before it
// returns, so the rings, the FIFO list and the delay map have reached
// their working size when timing starts.
func churnLoop(e *sim.Engine, pending int, schedule func(x uint64)) func() {
	x := uint64(88172645463325252)
	next := func() {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		schedule(x)
	}
	for i := 0; i < pending; i++ {
		next()
	}
	step := func() {
		next()
		e.Step()
	}
	for i := 0; i < 16*pending; i++ {
		step()
	}
	return step
}

// ResourceServe measures one Serve cycle of a one-unit resource with a
// job in service and one queued behind it: each iteration steps the
// engine once, completing a service, which hands the unit to the queued
// job, whose continuation queues the next.  It uses the call form,
// ServeCall, which keeps a bookkeeping record per job on the
// resource's free list.  The netsim datapath does not run on it: its
// stages take their unit with TakeOn, hold it on the batch record and
// release it when their queue's event runs.
func ResourceServe(b *testing.B) { benchStep(b, resourceServeLoop) }

// SemaphoreCycle measures one credit hand-over of a one-credit
// semaphore with a waiter queued: each iteration releases the credit to
// the waiter, whose continuation queues for it again.  It waits through
// Take, on nodes the semaphore recycles; every netsim stage waits the
// same way but through TakeOn on its batch's own node, which skips the
// spare list: storage credits are semaphores, and generator, teleporter
// and purifier units are the credits of a Resource's semaphore.  A
// stage whose TakeOn finds a credit free goes on inline; this cycle
// measures the other case, the queued hand-over.
func SemaphoreCycle(b *testing.B) { benchStep(b, semaphoreCycleLoop) }

// benchStep times one call per iteration of the step build returns.
func benchStep(b *testing.B, build func() (func(), error)) {
	step, err := build()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// resourceServeLoop builds ResourceServe's resource and returns one
// iteration of its cycle.
func resourceServeLoop() (func(), error) {
	e := sim.New()
	r, err := sim.NewResource(e, "bench", 1)
	if err != nil {
		return nil, err
	}
	r.ServeCall(time.Microsecond, serveAgain, r)
	r.ServeCall(time.Microsecond, serveAgain, r)
	return func() { e.Step() }, nil
}

// serveAgain queues another one-microsecond job on its resource.
func serveAgain(a any) {
	r := a.(*sim.Resource)
	r.ServeCall(time.Microsecond, serveAgain, r)
}

// semaphoreCycleLoop builds SemaphoreCycle's semaphore and returns one
// iteration of its cycle.
func semaphoreCycleLoop() (func(), error) {
	s, err := sim.NewSemaphore("bench", 1)
	if err != nil {
		return nil, err
	}
	s.Take(takeAgain, s) // takes the credit
	s.Take(takeAgain, s) // queues behind it
	return s.Release, nil
}

// takeAgain queues for another credit of its semaphore: the credit it
// was just handed is still out, so Take queues it.
func takeAgain(a any) {
	s := a.(*sim.Semaphore)
	s.Take(takeAgain, s)
}

// QFTRun returns a benchmark running the full event-driven simulator —
// a QFT over every tile of a benchGrid x benchGrid mesh with the
// paper's resource mix — under the given layout and routing policy.
// One iteration is one complete run; the reported events/sec metric is
// the end-to-end simulated-event throughput, the number the ROADMAP's
// "as fast as the hardware allows" north star is tracked by.
func QFTRun(layout simulate.Layout, policy route.Policy) func(*testing.B) {
	return func(b *testing.B) {
		m, prog := qftMachine(b, benchGrid, layout, 16, 16, 8, simulate.WithRouting(policy))
		timeRuns(b, m, prog)
	}
}

// LargeHomeBaseQFT runs a 12x12 HomeBase QFT-144 at t=g=21, p=5, the
// t=g=4p point of Figure 16's area budget, under dimension-order
// routing: about 18.2M events a run.  HomeBase pays two channels per
// op, so at paper scale its runs dominate a Figure 16 sweep, and only
// the cost per event moves their wall time.
func LargeHomeBaseQFT(b *testing.B) {
	m, prog := qftMachine(b, 12, simulate.HomeBase, 21, 21, 5)
	timeRuns(b, m, prog)
}

// CacheKey returns a benchmark deriving the cache key of a QFT over
// every tile of an n x n HomeBase mesh, one Machine.CacheKey per
// iteration.  The program's fingerprint is most of the bytes hashed:
// 1,947 of about 2.3 KB for the 4x4 QFT-16, and 522,267 for the 16x16
// QFT-256, the paper-scale program of 32,640 ops.
func CacheKey(n int) func(*testing.B) {
	return func(b *testing.B) {
		m, prog := qftMachine(b, n, simulate.HomeBase, 16, 16, 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			keySink = m.CacheKey(prog)
		}
	}
}

// keySink holds CacheKey's last key, so the compiler cannot drop the
// call it measures.
var keySink simulate.Key

// qftMachine builds a machine with t/g/p resources for a QFT over
// every tile of an n x n mesh, and returns it with the program.
func qftMachine(b *testing.B, n int, layout simulate.Layout, t, g, p int, opts ...simulate.Option) (*simulate.Machine, qnet.Program) {
	grid, err := qnet.NewGrid(n, n)
	if err != nil {
		b.Fatal(err)
	}
	m, err := simulate.New(grid, layout, append(opts, simulate.WithResources(t, g, p))...)
	if err != nil {
		b.Fatal(err)
	}
	return m, qnet.QFT(grid.Tiles())
}

// timeRuns times complete runs of prog on m, one per iteration, and
// reports their simulated-event throughput.  Every run of one machine
// makes the same events, so the count comes from the timed runs.
func timeRuns(b *testing.B, m *simulate.Machine, prog qnet.Program) {
	ctx := context.Background()
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Run(ctx, prog)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.StopTimer()
	reportEventRate(b, events)
}

// SweepWorkers returns a benchmark driving the concurrent sweep engine
// with the given worker count over a 16-point space (two layouts, two
// purifier depths, all four routing policies on a 4x4 QFT), one full
// sweep per iteration.  It measures the parallel orchestration path the
// figure generators and cmd/sweep use.
func SweepWorkers(workers int) func(*testing.B) {
	return func(b *testing.B) {
		grid, err := qnet.NewGrid(4, 4)
		if err != nil {
			b.Fatal(err)
		}
		space := simulate.Space{
			Grids:     []qnet.Grid{grid},
			Layouts:   []simulate.Layout{simulate.HomeBase, simulate.MobileQubit},
			Resources: []simulate.Resources{{Teleporters: 16, Generators: 16, Purifiers: 8}},
			Programs:  []qnet.Program{qnet.QFT(grid.Tiles())},
			Depths:    []int{2, 3},
			Routings:  route.Policies(),
		}
		ctx := context.Background()
		var events uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			points, err := simulate.Sweep(ctx, space, simulate.WithWorkers(workers))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				for _, pt := range points {
					if pt.Err != nil {
						b.Fatal(pt.Err)
					}
					events += pt.Result.Events
				}
			}
		}
		b.StopTimer()
		reportEventRate(b, events)
	}
}

// Fig16Sweep sweeps the default `figures -fig 16` space with one seed:
// an 8x8 QFT-64 under both layouts at the t=g=p=1024 baseline and at
// t=g=1p/2p/4p/8p of a 48-unit area, 10 points that each simulate, on
// GOMAXPROCS workers into a fresh cache every iteration.  Every CPU
// simulates, so the collector's share of the run comes out of the
// workers' time: what a run allocates shows here as lost throughput.
func Fig16Sweep(b *testing.B) {
	grid, err := qnet.NewGrid(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	allocs, err := simulate.Allocations(48, []int{1, 2, 4, 8})
	if err != nil {
		b.Fatal(err)
	}
	res := []simulate.Resources{{Teleporters: 1024, Generators: 1024, Purifiers: 1024}}
	for _, a := range allocs {
		res = append(res, simulate.AllocationResources(a))
	}
	space := simulate.Space{
		Grids:     []qnet.Grid{grid},
		Layouts:   []simulate.Layout{simulate.HomeBase, simulate.MobileQubit},
		Resources: res,
		Programs:  []qnet.Program{qnet.QFT(grid.Tiles())},
		Seeds:     simulate.SeedRange(1),
	}
	ctx := context.Background()
	workers := simulate.WithWorkers(runtime.GOMAXPROCS(0))
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := simulate.Sweep(ctx, space, workers, simulate.WithCache(simulate.NewCache(0)))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, pt := range points {
				if pt.Err != nil {
					b.Fatal(pt.Err)
				}
				events += pt.Result.Events
			}
		}
	}
	b.StopTimer()
	reportEventRate(b, events)
	reportPointRate(b, space.Size())
}

// DistributedSweep returns a benchmark driving the full distributed
// sweep service in process: a coordinator sharding the same 16-point
// space as SweepWorkers across `workers` loopback workers that share
// one result store.  One iteration is one complete distributed sweep
// with a cold store, so the dispatch, streaming and merge overhead is
// all on the clock; the reported points/sec metric is the
// coordinator-side merge throughput cmd/bench tracks.
func DistributedSweep(workers int) func(*testing.B) {
	return func(b *testing.B) {
		spec, size := distributedSpec(b)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			distributedSweep(ctx, b, loopbackFleet(b, workers, simulate.NewCache(0)), spec, size)
		}
		b.StopTimer()
		reportPointRate(b, size)
	}
}

// DistributedWarmSweep returns a benchmark re-sweeping DistributedSweep's
// space over `workers` loopback workers against the shared store one
// untimed sweep filled.  The store holds every point, so no shard is
// dispatched: one iteration is the coordinator's warm path alone, that
// is expanding the space, deriving its 16 keys, planning the shards,
// looking every point up and merging it.
func DistributedWarmSweep(workers int) func(*testing.B) {
	return func(b *testing.B) {
		spec, size := distributedSpec(b)
		ctx := context.Background()
		coord := loopbackFleet(b, workers, simulate.NewCache(0))
		distributedSweep(ctx, b, coord, spec, size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rep := distributedSweep(ctx, b, coord, spec, size); rep.ResumedShards != rep.Shards {
				b.Fatalf("warm sweep dispatched %d of %d shards", rep.Shards-rep.ResumedShards, rep.Shards)
			}
		}
		b.StopTimer()
		reportPointRate(b, size)
	}
}

// distributedSpec returns the distributed benchmarks' space,
// SweepWorkers' 16 points in wire form, and its size.
func distributedSpec(b *testing.B) (distrib.SpaceSpec, int) {
	grid, err := qnet.NewGrid(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	spec := distrib.SpaceSpec{
		Grids:     []qnet.Grid{grid},
		Layouts:   distrib.LayoutNames([]simulate.Layout{simulate.HomeBase, simulate.MobileQubit}),
		Resources: []simulate.Resources{{Teleporters: 16, Generators: 16, Purifiers: 8}},
		Programs:  []qnet.Program{qnet.QFT(grid.Tiles())},
		Depths:    []int{2, 3},
		Routings:  distrib.RoutingNames(route.Policies()),
	}
	size, err := spec.Size()
	if err != nil {
		b.Fatal(err)
	}
	return spec, size
}

// loopbackFleet builds a coordinator over `workers` loopback workers
// that share store, as the coordinator's shared store too.
func loopbackFleet(b *testing.B, workers int, store simulate.Store) *distrib.Coordinator {
	lb := distrib.NewLoopback()
	names := make([]string, workers)
	for w := range names {
		names[w] = fmt.Sprintf("w%d", w)
		lb.Add(names[w], distrib.NewWorker(distrib.WithWorkerStore(store)))
	}
	coord, err := distrib.NewCoordinator(lb, names, distrib.WithSharedStore(store, ""))
	if err != nil {
		b.Fatal(err)
	}
	return coord
}

// distributedSweep runs one sweep of spec, checks that all size points
// merged without error, and returns the sweep's report.
func distributedSweep(ctx context.Context, b *testing.B, coord *distrib.Coordinator, spec distrib.SpaceSpec, size int) *distrib.Report {
	points, rep, err := coord.Sweep(ctx, spec)
	if err != nil {
		b.Fatal(err)
	}
	if len(points) != size {
		b.Fatalf("merged %d of %d points", len(points), size)
	}
	for _, pt := range points {
		if pt.Err != nil {
			b.Fatal(pt.Err)
		}
	}
	return rep
}

// reportPointRate attaches the merged run-point throughput metric:
// pointsPerOp points per iteration over the measured wall time.
func reportPointRate(b *testing.B, pointsPerOp int) {
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(pointsPerOp)*float64(b.N)/secs, "points/sec")
	}
}

// reportEventRate attaches the simulated-event throughput metric to the
// benchmark: eventsPerOp simulated events per iteration over the
// measured wall time.  cmd/bench reads it back from
// testing.BenchmarkResult.Extra to fill the JSON trajectory.
func reportEventRate(b *testing.B, eventsPerOp uint64) {
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(eventsPerOp)*float64(b.N)/secs, "events/sec")
	}
}

// FullRunConfigs enumerates the layout x policy matrix of the full-run
// benchmark, in deterministic order.
func FullRunConfigs() []FullRunConfig {
	var out []FullRunConfig
	for _, layout := range []simulate.Layout{simulate.HomeBase, simulate.MobileQubit} {
		for _, p := range route.Policies() {
			out = append(out, FullRunConfig{
				Name:   fmt.Sprintf("layout=%s/route=%s", layout, p.Name()),
				Layout: layout,
				Policy: p,
			})
		}
	}
	return out
}

// FullRunConfig is one cell of the full-run benchmark matrix.
type FullRunConfig struct {
	// Name is the benchmark sub-name, "layout=<layout>/route=<policy>".
	Name string
	// Layout is the placement policy under test.
	Layout simulate.Layout
	// Policy is the routing policy under test.
	Policy route.Policy
}

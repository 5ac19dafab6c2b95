// Package perfbench is the repository's performance measurement layer:
// reusable benchmark bodies covering the discrete-event engine's hot
// operation (schedule plus step, over one delay, netsim's delay mix and
// all-distinct delays), the resource and semaphore waiter cycles, a
// full 5x5 QFT simulation per layout and routing policy, and the
// concurrent sweep engine.
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

// EngineScheduleDistinct is the event queue's worst case: a steady
// backlog of schedulePending events in which every event has a fresh
// random delay, so each Schedule opens a FIFO and the drained ones are
// swept for reuse.
func EngineScheduleDistinct(b *testing.B) { benchStep(b, engineScheduleDistinctLoop) }

// engineScheduleMixLoop builds EngineScheduleMix's engine and returns
// one iteration of its churn.
func engineScheduleMixLoop() (func(), error) {
	const us, ns = time.Microsecond, time.Nanosecond
	var delays []time.Duration // the mix in 1,000 equally likely slots
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
	return churnLoop(mixPending, func(x uint64) time.Duration {
		return delays[x%uint64(len(delays))]
	}), nil
}

// engineScheduleDistinctLoop builds EngineScheduleDistinct's engine
// and returns one iteration of its churn.  Delays are 30 random bits
// of nanoseconds (up to ~1.07 s), so a repeat among the delays an
// engine holds is rare enough to ignore.
func engineScheduleDistinctLoop() (func(), error) {
	return churnLoop(schedulePending, func(x uint64) time.Duration {
		return time.Duration(1 + x>>34)
	}), nil
}

// churnLoop fills an engine with pending events and returns one
// iteration of its churn: schedule one event, then step one.  Each
// delay is delay(x) for the next x of a xorshift stream.  The churn
// runs 16 backlogs' worth of iterations before it returns, so the
// rings, the FIFO list and the delay map have reached their working
// size when timing starts.
func churnLoop(pending int, delay func(x uint64) time.Duration) func() {
	e := sim.New()
	fn := func() {}
	x := uint64(88172645463325252)
	next := func() time.Duration {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return delay(x)
	}
	for i := 0; i < pending; i++ {
		e.Schedule(next(), fn)
	}
	step := func() {
		e.Schedule(next(), fn)
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
// job, whose continuation queues the next.  It uses the call form
// (ServeCall) the netsim datapath runs on.
func ResourceServe(b *testing.B) { benchStep(b, resourceServeLoop) }

// SemaphoreCycle measures one credit hand-over of a one-credit
// semaphore with a waiter queued: each iteration releases the credit to
// the waiter, whose continuation queues for it again.  It uses the call
// form (AcquireCall) the netsim datapath runs on.
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
	s.AcquireCall(acquireAgain, s)
	return s.Release, nil
}

// acquireAgain queues for another credit of its semaphore.
func acquireAgain(a any) {
	s := a.(*sim.Semaphore)
	s.AcquireCall(acquireAgain, s)
}

// QFTRun returns a benchmark running the full event-driven simulator —
// a QFT over every tile of a benchGrid x benchGrid mesh with the
// paper's resource mix — under the given layout and routing policy.
// One iteration is one complete run; the reported events/sec metric is
// the end-to-end simulated-event throughput, the number the ROADMAP's
// "as fast as the hardware allows" north star is tracked by.
func QFTRun(layout simulate.Layout, policy route.Policy) func(*testing.B) {
	return func(b *testing.B) {
		grid, err := qnet.NewGrid(benchGrid, benchGrid)
		if err != nil {
			b.Fatal(err)
		}
		m, err := simulate.New(grid, layout,
			simulate.WithResources(16, 16, 8),
			simulate.WithRouting(policy))
		if err != nil {
			b.Fatal(err)
		}
		prog := qnet.QFT(grid.Tiles())
		ctx := context.Background()
		res, err := m.Run(ctx, prog) // warm run: learn the event count
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Run(ctx, prog); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportEventRate(b, res.Events)
	}
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

// DistributedSweep returns a benchmark driving the full distributed
// sweep service in process: a coordinator sharding the same 16-point
// space as SweepWorkers across `workers` loopback workers that share
// one result store.  One iteration is one complete distributed sweep
// with a cold store, so the dispatch, streaming and merge overhead is
// all on the clock; the reported points/sec metric is the
// coordinator-side merge throughput cmd/bench tracks.
func DistributedSweep(workers int) func(*testing.B) {
	return func(b *testing.B) {
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
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store := simulate.NewCache(0)
			lb := distrib.NewLoopback()
			names := make([]string, workers)
			for w := 0; w < workers; w++ {
				names[w] = fmt.Sprintf("w%d", w)
				lb.Add(names[w], distrib.NewWorker(distrib.WithWorkerStore(store)))
			}
			coord, err := distrib.NewCoordinator(lb, names, distrib.WithSharedStore(store, ""))
			if err != nil {
				b.Fatal(err)
			}
			points, _, err := coord.Sweep(ctx, spec)
			if err != nil {
				b.Fatal(err)
			}
			if len(points) != size {
				b.Fatalf("merged %d of %d points", len(points), size)
			}
			if i == 0 {
				for _, pt := range points {
					if pt.Err != nil {
						b.Fatal(pt.Err)
					}
				}
			}
		}
		b.StopTimer()
		secs := b.Elapsed().Seconds()
		if secs > 0 {
			b.ReportMetric(float64(size)*float64(b.N)/secs, "points/sec")
		}
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

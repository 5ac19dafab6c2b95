package main

// Layer probes time one operation of a single layer in a tight loop, on
// inputs fixed here and independent of the workload, so a change to
// that layer shows up even where the end-to-end numbers are too noisy
// to resolve it.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"time"

	"repro/internal/sim"
	"repro/qnet"
	"repro/qnet/fault"
	"repro/qnet/route"
	"repro/qnet/simulate"
)

// probeBatches is how many timed batches a probe runs; it reports their
// median.
const probeBatches = 5

// timeProbe sizes a batch of fn's iterations to take about budget /
// (2·probeBatches), then returns the median nanoseconds per iteration
// over probeBatches such batches.
func timeProbe(budget time.Duration, fn func(n int) error) (float64, error) {
	target := budget / (2 * probeBatches)
	n := 1
	for {
		start := time.Now()
		if err := fn(n); err != nil {
			return 0, err
		}
		if time.Since(start) >= target || n >= 1<<30 {
			break
		}
		n *= 2
	}
	per := make([]float64, probeBatches)
	for i := range per {
		start := time.Now()
		if err := fn(n); err != nil {
			return 0, err
		}
		per[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per), nil
}

// layerProbe is one probe: it returns the loop timeProbe measures, in
// the metric's unit per iteration (scale converts from nanoseconds).
type layerProbe struct {
	metric string
	scale  float64
	build  func() (func(n int) error, func(), error)
}

var layerProbes = []layerProbe{
	{"sim.schedule_step_ns", 1, probeScheduleStep},
	{"sim.resource_serve_ns", 1, probeResourceServe},
	{"sim.semaphore_cycle_ns", 1, probeSemaphoreCycle},
	{"netsim.build_ms", 1e-6, probeBuild},
	{"route.xy_ns", 1, routeProbe(func(g qnet.Grid, src, dst route.Coord) error {
		_, err := route.XYOrder().Route(g, src, dst, nil)
		return err
	})},
	{"route.least_congested_ns", 1, routeProbe(func(g qnet.Grid, src, dst route.Coord) error {
		_, err := route.LeastCongested().Route(g, src, dst, nil)
		return err
	})},
	{"route.fault_adaptive_ns", 1, probeFaultAdaptive},
	{"simulate.cache_key_us", 1e-3, probeCacheKey},
	{"simulate.mem_get_ns", 1, probeMemGet},
	{"simulate.mem_put_ns", 1, probeMemPut},
	{"simulate.disk_put_us", 1e-3, probeDiskPut},
}

// runProbes measures every layer probe with the given budget each.
func runProbes(budget time.Duration) (map[string]float64, error) {
	out := make(map[string]float64, len(layerProbes))
	for _, p := range layerProbes {
		loop, cleanup, err := p.build()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.metric, err)
		}
		ns, err := timeProbe(budget, loop)
		cleanup()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.metric, err)
		}
		out[p.metric] = ns * p.scale
	}
	return out, nil
}

func noCleanup() {}

// probeScheduleStep keeps 1,024 events pending; each step runs one,
// which schedules its successor at a pseudo-random delay.
func probeScheduleStep() (func(int) error, func(), error) {
	e := sim.New()
	x := uint64(88172645463325252)
	var fire func()
	fire = func() {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		e.Schedule(time.Duration(x%1024+1), fire)
	}
	for i := 0; i < 1024; i++ {
		fire()
	}
	return func(n int) error {
		for i := 0; i < n; i++ {
			e.Step()
		}
		return nil
	}, noCleanup, nil
}

// probeResourceServe keeps a one-unit resource busy with one job queued
// behind it; each step completes a service and starts the next.
func probeResourceServe() (func(int) error, func(), error) {
	e := sim.New()
	r, err := sim.NewResource(e, "probe", 1)
	if err != nil {
		return nil, nil, err
	}
	var again func()
	again = func() { r.Serve(time.Microsecond, again) }
	r.Serve(time.Microsecond, again)
	r.Serve(time.Microsecond, again)
	return func(n int) error {
		for i := 0; i < n; i++ {
			e.Step()
		}
		return nil
	}, noCleanup, nil
}

// probeSemaphoreCycle hands a one-credit semaphore to a queued waiter,
// which queues again.
func probeSemaphoreCycle() (func(int) error, func(), error) {
	s, err := sim.NewSemaphore("probe", 1)
	if err != nil {
		return nil, nil, err
	}
	var again func()
	again = func() { s.Acquire(again) }
	s.Acquire(again)
	return func(n int) error {
		for i := 0; i < n; i++ {
			s.Release()
		}
		return nil
	}, noCleanup, nil
}

// probeBuild runs a one-op program on 16×16, so the time is almost all
// building the mesh's routers and resources.
func probeBuild() (func(int) error, func(), error) {
	g, err := qnet.NewGrid(16, 16)
	if err != nil {
		return nil, nil, err
	}
	r := fig16Allocation(4)
	m, err := simulate.New(g, simulate.HomeBase, simulate.WithResources(r.Teleporters, r.Generators, r.Purifiers))
	if err != nil {
		return nil, nil, err
	}
	prog := qnet.Program{Name: "one-op", Qubits: 2, Ops: []qnet.Op{{A: 0, B: 1}}}
	return func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := m.Run(context.Background(), prog); err != nil {
				return err
			}
		}
		return nil
	}, noCleanup, nil
}

// routeProbe routes corner to corner on a healthy 32×32 mesh.
func routeProbe(call func(g qnet.Grid, src, dst route.Coord) error) func() (func(int) error, func(), error) {
	return func() (func(int) error, func(), error) {
		g, err := qnet.NewGrid(32, 32)
		if err != nil {
			return nil, nil, err
		}
		src, dst := route.Coord{X: 0, Y: 0}, route.Coord{X: 31, Y: 31}
		return func(n int) error {
			for i := 0; i < n; i++ {
				if err := call(g, src, dst); err != nil {
					return err
				}
			}
			return nil
		}, noCleanup, nil
	}
}

// probeFaultAdaptive routes corner to corner on a 32×32 mesh with 5% of
// its links dead, drawn from the first seed that leaves the corners
// connected.
func probeFaultAdaptive() (func(int) error, func(), error) {
	g, err := qnet.NewGrid(32, 32)
	if err != nil {
		return nil, nil, err
	}
	src, dst := route.Coord{X: 0, Y: 0}, route.Coord{X: 31, Y: 31}
	fa := route.FaultAdaptive().(route.FaultAware)
	for seed := int64(1); seed <= 100; seed++ {
		model, err := fault.Preview(fault.Spec{DeadLinks: 0.05}, g, seed)
		if err != nil {
			return nil, nil, err
		}
		if _, err := fa.RouteFaulty(g, src, dst, model, nil); err != nil {
			continue
		}
		return func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := fa.RouteFaulty(g, src, dst, model, nil); err != nil {
					return err
				}
			}
			return nil
		}, noCleanup, nil
	}
	return nil, nil, fmt.Errorf("no seed in 1..100 connects the corners")
}

// probeCacheKey hashes the content key of an 8×8 QFT-64 run.
func probeCacheKey() (func(int) error, func(), error) {
	g, err := qnet.NewGrid(8, 8)
	if err != nil {
		return nil, nil, err
	}
	m, err := simulate.New(g, simulate.HomeBase)
	if err != nil {
		return nil, nil, err
	}
	prog := qnet.QFT(g.Tiles())
	return func(n int) error {
		for i := 0; i < n; i++ {
			m.CacheKey(prog)
		}
		return nil
	}, noCleanup, nil
}

// probeKeys are the keys the store probes cycle through.
func probeKeys(n int) []simulate.Key {
	keys := make([]simulate.Key, n)
	for i := range keys {
		keys[i] = sha256.Sum256([]byte(fmt.Sprint("qnetbench probe key ", i)))
	}
	return keys
}

// probeResult is a realistic Result to store: the one-op 4×4 run.
func probeResult() (simulate.Result, error) {
	g, err := qnet.NewGrid(4, 4)
	if err != nil {
		return simulate.Result{}, err
	}
	m, err := simulate.New(g, simulate.HomeBase)
	if err != nil {
		return simulate.Result{}, err
	}
	return m.Run(context.Background(), qnet.Program{Name: "one-op", Qubits: 2, Ops: []qnet.Op{{A: 0, B: 1}}})
}

// probeMemGet hits an in-memory cache holding 1,024 entries.
func probeMemGet() (func(int) error, func(), error) {
	res, err := probeResult()
	if err != nil {
		return nil, nil, err
	}
	c := simulate.NewCache(0)
	keys := probeKeys(1024)
	for _, k := range keys {
		c.Put(k, res)
	}
	return func(n int) error {
		for i := 0; i < n; i++ {
			if _, ok := c.Get(keys[i%len(keys)]); !ok {
				return fmt.Errorf("cache lost a key")
			}
		}
		return nil
	}, noCleanup, nil
}

// probeMemPut stores into an in-memory cache cycling over 1,024 keys.
func probeMemPut() (func(int) error, func(), error) {
	res, err := probeResult()
	if err != nil {
		return nil, nil, err
	}
	c := simulate.NewCache(0)
	keys := probeKeys(1024)
	return func(n int) error {
		for i := 0; i < n; i++ {
			c.Put(keys[i%len(keys)], res)
		}
		return nil
	}, noCleanup, nil
}

// probeDiskPut stores into a disk-backed cache cycling over 64 keys.
func probeDiskPut() (func(int) error, func(), error) {
	res, err := probeResult()
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp("", "qnetbench-probe-")
	if err != nil {
		return nil, nil, err
	}
	c, err := simulate.NewDiskCache(dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	keys := probeKeys(64)
	return func(n int) error {
			for i := 0; i < n; i++ {
				c.Put(keys[i%len(keys)], res)
			}
			if st := c.Stats(); st.WriteErrors > 0 {
				return fmt.Errorf("%d disk writes failed", st.WriteErrors)
			}
			return nil
		}, func() {
			if err := os.RemoveAll(dir); err != nil {
				fmt.Fprintln(os.Stderr, "qnetbench:", err)
			}
		}, nil
}

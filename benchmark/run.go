package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// runConfig fixes how one workload is measured.
type runConfig struct {
	seed    int64
	seconds time.Duration
	// traced selects the per-layer pass: untraced and traced ops
	// alternate, then the layer probes run.  Otherwise only untraced
	// ops run, each bracketed by the reference loop, and the end-to-end
	// metrics are reported.
	traced bool
	// setupReps is how many times the fixtures are built.
	setupReps int
	// minOps is the fewest timed ops (traced ops, in the traced pass)
	// a run makes, however long they take.
	minOps      int
	probeBudget time.Duration
	logf        func(format string, args ...any)
}

// measurement is everything one run measured.
type measurement struct {
	attempted, failed int
	builds            []float64 // seconds per fixture build
	warmup            float64   // seconds of the warm-up op
	st                opStats
	values            map[string]float64
	// spans are the traced pass's spans, for -trace-dir.
	rec *recorder
}

// opStats accumulates a run's successful untraced ops, plus what only
// the traced ops measure.
type opStats struct {
	walls []float64 // seconds
	// opOps and opPoints are each op's logical ops and sweep points.
	opOps, opPoints []float64
	// rel is each op's wall time over the mean of the reference loop
	// times just before and just after it.
	rel, refs           []float64
	rss                 []float64 // per-op peak RSS, MB
	points              int
	sims, hits, events  uint64
	reassigned, dupes   int
	last                outcome
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcCPU, totalCPU     float64
	hostOps             int
	// overhead is each traced op's wall time over that of the untraced
	// op run just before it.
	overhead []float64
	hottest  float64
}

func (s *opStats) add(outs []outcome, wall time.Duration) {
	var points, ops int
	for _, out := range outs {
		points += len(out.results)
		for i, r := range out.results {
			ops += r.Ops
			if out.cached[i] {
				s.hits++
			} else {
				s.sims++
				s.events += r.Events
			}
		}
		if out.report != nil {
			s.reassigned += out.report.Reassignments
			s.dupes += out.report.DuplicatePoints
		}
		s.last = out
	}
	s.walls = append(s.walls, wall.Seconds())
	s.opPoints = append(s.opPoints, float64(points))
	s.opOps = append(s.opOps, float64(ops))
	s.points += points
}

// hostSample is a snapshot of the Go runtime's allocation and GC
// counters.
type hostSample struct {
	mem     runtime.MemStats
	cpu     []metrics.Sample
	gcCPU   float64
	totalCP float64
}

func sampleHost() hostSample {
	var h hostSample
	runtime.ReadMemStats(&h.mem)
	h.cpu = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(h.cpu)
	h.gcCPU, h.totalCP = h.cpu[0].Value.Float64(), h.cpu[1].Value.Float64()
	return h
}

func (s *opStats) addHost(before, after hostSample) {
	s.mallocs += after.mem.Mallocs - before.mem.Mallocs
	s.allocBytes += after.mem.TotalAlloc - before.mem.TotalAlloc
	s.gcCycles += after.mem.NumGC - before.mem.NumGC
	s.gcCPU += after.gcCPU - before.gcCPU
	s.totalCPU += after.totalCP - before.totalCP
	s.hostOps++
}

// checker compares every op's output with the expected output: the pin
// at the pinned seed, otherwise the first op of the run, so later ops
// and traced ops must repeat it byte for byte.
type checker struct {
	workload string
	want     *pin
	logf     func(format string, args ...any)
}

func newChecker(w workload, seed int64, logf func(string, ...any)) (*checker, error) {
	c := &checker{workload: w.name, logf: logf}
	if seed == pinSeed {
		p, err := loadPin(w.pin)
		if err != nil {
			return nil, err
		}
		c.want = &p
	}
	return c, nil
}

// ok reports whether the op succeeded and every outcome matches the
// expected output, logging why not.
func (c *checker) ok(what string, outs []outcome, err error) bool {
	if err != nil {
		c.logf("%s: %s failed: %v", c.workload, what, err)
		return false
	}
	for i, out := range outs {
		if c.want == nil {
			p := newPin(c.workload, 0, out.results)
			c.want = &p
			continue
		}
		if msg := c.want.mismatch(out.results); msg != "" {
			c.logf("%s: %s, call %d: output differs from the expected: %s", c.workload, what, i, msg)
			return false
		}
	}
	return true
}

// measure runs one workload: set-up, then timed ops in a closed loop
// (each op starts when the previous one has finished), checking every
// op's output.
func measure(ctx context.Context, w workload, cfg runConfig) (*measurement, error) {
	check, err := newChecker(w, cfg.seed, cfg.logf)
	if err != nil {
		return nil, err
	}
	m := &measurement{values: make(map[string]float64)}
	if cfg.traced {
		m.rec = newRecorder()
	}
	// Set-up is building the fixtures, setupReps times, and one warm-up
	// op.  setup_s is the median build plus the warm-up op: the op is the
	// costly part, and running it once leaves the run's time to the
	// timed ops.
	var fx fixture
	for i := 0; i < cfg.setupReps; i++ {
		if fx != nil {
			fx.close()
		}
		start := time.Now()
		if fx, err = w.setup(ctx, cfg.seed, m.rec); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		m.builds = append(m.builds, time.Since(start).Seconds())
	}
	defer fx.close()
	start := time.Now()
	if err := fx.prepare(); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	outs, err := fx.op(ctx, false)
	m.warmup = time.Since(start).Seconds()
	m.attempted++
	if !check.ok("warm-up op", outs, err) {
		m.failed++
	}

	st := &m.st
	var ref float64
	if !cfg.traced {
		ref = timeRefLoop(w.workers)
	}
	start = time.Now()
	for n := 0; n < cfg.minOps || time.Since(start) < cfg.seconds; n++ {
		if err := fx.prepare(); err != nil {
			return nil, err
		}
		var before, after hostSample
		if cfg.traced {
			before = sampleHost()
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		outs, err := fx.op(ctx, false)
		wall := time.Since(t0)
		rss, rssErr := peakRSSMB()
		if rssErr != nil {
			return nil, rssErr
		}
		if cfg.traced {
			after = sampleHost()
		}
		m.attempted++
		ok := check.ok(fmt.Sprintf("op %d", n), outs, err)
		if ok {
			st.add(outs, wall)
			st.rss = append(st.rss, rss)
		} else {
			m.failed++
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !cfg.traced {
			next := timeRefLoop(w.workers)
			if ok {
				st.rel = append(st.rel, wall.Seconds()/((ref+next)/2))
				st.refs = append(st.refs, ref)
			}
			ref = next
			continue
		}
		if ok {
			st.addHost(before, after)
		}

		if err := fx.prepare(); err != nil {
			return nil, err
		}
		m.rec.op.Store(int64(n))
		id := m.rec.open("op")
		t0 = time.Now()
		outs, err = fx.op(ctx, true)
		tracedWall := time.Since(t0)
		m.rec.close(id)
		m.attempted++
		if !check.ok(fmt.Sprintf("traced op %d", n), outs, err) {
			m.failed++
		} else if ok {
			st.overhead = append(st.overhead, tracedWall.Seconds()/wall.Seconds())
		}
	}
	if !cfg.traced {
		endToEnd(m)
		return m, nil
	}
	if d, isDetailer := fx.(detailer); isDetailer {
		out, err := d.detail(ctx)
		m.attempted++
		if !check.ok("detailed run", []outcome{out}, err) {
			m.failed++
		} else {
			st.hottest = out.hottest
		}
	}
	layerMetrics(m, w.workers)
	probes, err := runProbes(cfg.probeBudget)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		m.values[k] = v
	}
	return m, nil
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the end-to-end metrics and their raw-seconds
// counterparts, which the report prints beside them.
func endToEnd(m *measurement) {
	st := &m.st
	v := m.values
	v["setup_s"] = median(m.builds) + m.warmup
	v["wall_ref"] = median(st.rel)
	v["ops_per_ref"] = medianRate(st.opOps, st.rel)
	v["points_per_ref"] = medianRate(st.opPoints, st.rel)
	// An op's peak RSS depends on when the GC happened to run, so the
	// metric is the median of the per-op peaks.
	v["peak_rss_mb"] = median(st.rss)
	v["fail_ratio"] = ratio(float64(m.failed), float64(m.attempted))

	v["wall_s"] = median(st.walls)
	v["ops_per_s"] = medianRate(st.opOps, st.walls)
	v["points_per_s"] = medianRate(st.opPoints, st.walls)
	v["ref_s"] = median(st.refs)
}

// medianRate is the median over ops of work[i]/took[i].  Like the
// median op time, it lets no single slow op move the result.
func medianRate(work, took []float64) float64 {
	rates := make([]float64, len(took))
	for i := range took {
		rates[i] = work[i] / took[i]
	}
	return median(rates)
}

func layerMetrics(m *measurement, workers int) {
	st := &m.st
	v := m.values
	n := float64(len(st.walls))

	// The simulated output of one call: exact, the same on every run.
	out := st.last
	var exec, latMean, latMax, tu, gu, pu float64
	var channels, pairHops, turns, msgs, dropped, useful, sent uint64
	for i, r := range out.results {
		exec += r.Exec.Seconds()
		latMean += float64(r.MeanChannelLatency) / 1e3
		latMax = math.Max(latMax, float64(r.MaxChannelLatency)/1e3)
		tu += r.TeleporterUtil
		gu += r.GeneratorUtil
		pu += r.PurifierUtil
		channels += r.Channels
		pairHops += r.PairHops
		turns += r.Turns
		msgs += r.ClassicalMessages
		dropped += r.DroppedBatches
		batches := r.PairsDelivered >> uint(out.depths[i])
		useful += batches
		sent += batches + r.DroppedBatches + r.FailedBatches
	}
	pts := float64(len(out.results))
	v["netsim.exec_s"] = ratio(exec, pts)
	v["netsim.latency_mean_us"] = ratio(latMean, pts)
	v["netsim.latency_max_us"] = latMax
	v["netsim.teleporter_util"] = ratio(tu, pts)
	v["netsim.generator_util"] = ratio(gu, pts)
	v["netsim.purifier_util"] = ratio(pu, pts)
	v["netsim.channels"] = float64(channels)
	v["netsim.pair_hops"] = float64(pairHops)
	v["netsim.turns"] = float64(turns)
	v["netsim.classical_msgs"] = float64(msgs)
	v["netsim.batch_yield"] = ratio(float64(useful), float64(sent))
	v["fault.dropped_batches"] = float64(dropped)
	if st.hottest > 0 {
		v["netsim.teleporter_util_max"] = st.hottest
	}

	v["sim.events"] = ratio(float64(st.events), n)
	v["sim.events_per_s"] = ratio(float64(st.events), sum(st.walls))
	v["simulate.sims_per_op"] = ratio(float64(st.sims), n)
	v["simulate.hit_ratio"] = ratio(float64(st.hits), float64(st.points))
	v["distrib.reassignments"] = ratio(float64(st.reassigned), n)
	v["distrib.duplicates"] = ratio(float64(st.dupes), n)

	hn := float64(st.hostOps)
	v["host.allocs_per_op"] = ratio(float64(st.mallocs), hn)
	v["host.alloc_mb_per_op"] = ratio(float64(st.allocBytes)/(1<<20), hn)
	v["host.gc_cycles_per_op"] = ratio(float64(st.gcCycles), hn)
	v["host.gc_cpu_frac"] = ratio(st.gcCPU, st.totalCPU)

	v["bench.trace_overhead"] = median(st.overhead)
	for k, x := range spanMetrics(m.rec.snapshot(), len(st.overhead), workers) {
		v[k] = x
	}
}

// spanMetrics derives the per-layer numbers the traced ops' spans give.
// Metrics of a layer the workload never crossed are left out.
func spanMetrics(spans []span, ops, workers int) map[string]float64 {
	total := make(map[string]int64)
	count := make(map[string]int)
	storeKids := make(map[int][][2]int64) // store spans by parent
	for _, s := range spans {
		total[s.Name] += s.dur()
		count[s.Name]++
		if strings.HasSuffix(s.Name, ".get") || strings.HasSuffix(s.Name, ".put") {
			storeKids[s.Parent] = append(storeKids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	v := make(map[string]float64)
	perOp := func(x float64) float64 { return ratio(x, float64(ops)) }
	meanUS := func(name, metric string) {
		if count[name] > 0 {
			v[metric] = float64(total[name]) / float64(count[name]) / 1e3
		}
	}

	route := float64(total["route.Route"])
	simulating := float64(total["simulate.Machine.Run"] + total["simulate.point"])
	calls := float64(total["simulate.Machine.Run"] + total["simulate.Sweep"] + total["distrib.Coordinator.Sweep"])
	v["route.calls"] = perOp(float64(count["route.Route"]))
	v["route.share"] = ratio(route, simulating)
	v["simulate.worker_busy_frac"] = ratio(simulating, float64(workers)*calls)
	if count["route.Route"] > 0 {
		v["route.busy_s"] = perOp(route / 1e9)
	}
	meanUS("simulate.store.get", "simulate.store_get_us")
	meanUS("simulate.store.put", "simulate.store_put_us")
	meanUS("distrib.remote.get", "distrib.remote_get_us")
	meanUS("distrib.remote.put", "distrib.remote_put_us")
	meanUS("distrib.server.get", "distrib.server_get_us")
	meanUS("distrib.server.put", "distrib.server_put_us")

	var self []float64
	for i, s := range spans {
		if s.Name == "distrib.Coordinator.Sweep" {
			self = append(self, float64(selfTime(s, storeKids[i]))/1e9)
		}
	}
	if len(self) > 0 {
		v["distrib.sweep_self_s"] = median(self)
	}
	return v
}

// Chaos fault injection for the distributed sweep tests: seeded fault
// schedules — latency, connection refusal, mid-stream truncation,
// duplicated result lines, Status-probe flaps, store read misses and
// dropped writes — and a Transport wrapper and a Store wrapper that
// replay one against any inner implementation, so every coordinator
// failure path is exercisable deterministically, with no real
// failures.  It lives in test files only: no program ships it.
//
// A schedule is a probability table (chaosConfig) plus a seeded RNG:
// every decision is one draw, serialized under a mutex, so the
// decision *sequence* for a given seed is fixed even though which
// concurrent dispatch consumes which decision depends on goroutine
// interleaving.  That is exactly the contract a chaos soak needs — the
// fault mix is reproducible, the placement is adversarial — while the
// sweep's merged output must stay byte-identical regardless.

package distrib

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/qnet/simulate"
)

// chaosConfig is the probability table of one fault schedule.  Every
// field is the per-decision probability (in [0,1]) of injecting that
// fault; the zero chaosConfig injects nothing.
type chaosConfig struct {
	// Seed seeds the schedule's RNG; equal seeds replay equal decision
	// sequences.
	Seed int64
	// Latency is the probability a dispatch is delayed before it
	// reaches the inner transport.
	Latency float64
	// MaxLatency bounds each injected delay (default 2ms).  Delays are
	// uniform in (0, MaxLatency].
	MaxLatency time.Duration
	// Refuse is the probability a dispatch is refused outright, as a
	// connection-refused failure, before the inner transport runs.
	Refuse float64
	// Truncate is the probability a dispatch's result stream is cut
	// mid-shard: a few points are delivered, then the stream breaks
	// without a terminal line.
	Truncate float64
	// Duplicate is the probability a dispatch re-delivers every result
	// line once — the overlap a retried stream produces.
	Duplicate float64
	// Flap is the probability a Status probe fails even though the
	// worker answered as alive.
	Flap float64
	// StoreMiss is the probability a store Get is forced to miss.
	StoreMiss float64
	// StoreDrop is the probability a store Put is silently dropped.
	StoreDrop float64
}

// defaultChaos returns a moderately hostile schedule configuration for
// the given seed: every fault class enabled at rates a correct
// coordinator must absorb without changing its merged output.
func defaultChaos(seed int64) chaosConfig {
	return chaosConfig{
		Seed:       seed,
		Latency:    0.3,
		MaxLatency: 2 * time.Millisecond,
		Refuse:     0.15,
		Truncate:   0.15,
		Duplicate:  0.2,
		Flap:       0.1,
		StoreMiss:  0.2,
		StoreDrop:  0.2,
	}
}

// chaosDispatch is the fault decision for one transport Run call.
type chaosDispatch struct {
	// Delay is the injected latency before the dispatch proceeds (zero:
	// none).
	Delay time.Duration
	// Refuse refuses the dispatch outright, before any work happens.
	Refuse bool
	// TruncateAfter, when >= 0, cuts the result stream after that many
	// delivered points; -1 delivers the whole shard.
	TruncateAfter int
	// Duplicate re-delivers every result line once.
	Duplicate bool
}

// chaosStats counts the faults a schedule has injected so far.
type chaosStats struct {
	// Decisions is the total number of fault decisions drawn.
	Decisions int
	// Delays counts injected dispatch latencies.
	Delays int
	// Refusals counts refused dispatches.
	Refusals int
	// Truncations counts mid-stream cuts.
	Truncations int
	// Duplicates counts dispatches with duplicated result lines.
	Duplicates int
	// Flaps counts failed-but-alive Status probes.
	Flaps int
	// StoreMisses counts store Gets forced to miss.
	StoreMisses int
	// StoreDrops counts store Puts silently dropped.
	StoreDrops int
}

// Injected is the total number of injected faults of every kind.
func (s chaosStats) Injected() int {
	return s.Delays + s.Refusals + s.Truncations + s.Duplicates + s.Flaps + s.StoreMisses + s.StoreDrops
}

// String renders the counters compactly.
func (s chaosStats) String() string {
	return fmt.Sprintf("%d faults over %d decisions (%d delays, %d refusals, %d truncations, %d duplicates, %d flaps, %d store misses, %d store drops)",
		s.Injected(), s.Decisions, s.Delays, s.Refusals, s.Truncations, s.Duplicates, s.Flaps, s.StoreMisses, s.StoreDrops)
}

// chaosSchedule is a running fault schedule: a chaosConfig plus the
// seeded RNG drawing its decisions.  It is safe for concurrent use;
// draws are serialized, so a seed fixes the decision sequence.
type chaosSchedule struct {
	mu    sync.Mutex
	cfg   chaosConfig
	rng   *rand.Rand
	stats chaosStats
}

// newChaosSchedule builds a schedule from the configuration.
func newChaosSchedule(cfg chaosConfig) *chaosSchedule {
	if cfg.MaxLatency <= 0 {
		cfg.MaxLatency = 2 * time.Millisecond
	}
	return &chaosSchedule{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Dispatch draws the fault decision for one transport Run call.
func (s *chaosSchedule) Dispatch() chaosDispatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Decisions++
	d := chaosDispatch{TruncateAfter: -1}
	if s.rng.Float64() < s.cfg.Latency {
		d.Delay = time.Duration(1 + s.rng.Int63n(int64(s.cfg.MaxLatency)))
		s.stats.Delays++
	}
	if s.rng.Float64() < s.cfg.Refuse {
		d.Refuse = true
		s.stats.Refusals++
	}
	if s.rng.Float64() < s.cfg.Truncate {
		d.TruncateAfter = s.rng.Intn(3)
		s.stats.Truncations++
	}
	if s.rng.Float64() < s.cfg.Duplicate {
		d.Duplicate = true
		s.stats.Duplicates++
	}
	return d
}

// Flap draws the decision for one Status probe: true means the probe
// must fail even though the worker is alive.
func (s *chaosSchedule) Flap() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Decisions++
	if s.rng.Float64() < s.cfg.Flap {
		s.stats.Flaps++
		return true
	}
	return false
}

// MissGet draws the decision for one store Get: true forces a miss.
func (s *chaosSchedule) MissGet() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Decisions++
	if s.rng.Float64() < s.cfg.StoreMiss {
		s.stats.StoreMisses++
		return true
	}
	return false
}

// DropPut draws the decision for one store Put: true drops the write.
func (s *chaosSchedule) DropPut() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Decisions++
	if s.rng.Float64() < s.cfg.StoreDrop {
		s.stats.StoreDrops++
		return true
	}
	return false
}

// Stats returns a snapshot of the faults injected so far.
func (s *chaosSchedule) Stats() chaosStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// chaosTransport wraps an inner Transport with seeded fault injection
// driven by a chaosSchedule.  Faults are injected on the coordinator
// side of the transport seam, so the inner transport (Loopback or
// HTTPTransport) and the workers behind it stay healthy — exactly the
// point: the coordinator must absorb every injected failure without
// changing its merged output.
type chaosTransport struct {
	inner Transport
	sched *chaosSchedule
}

// errRefused is the cause of an injected connection refusal.
var errRefused = errors.New("chaos: connection refused")

// errProbeDropped is the cause of an injected Status-probe flap.
var errProbeDropped = errors.New("chaos: probe dropped")

// Run applies one Dispatch decision around the inner transport's Run:
// an injected delay first, then possibly an outright refusal; during
// the stream, result lines may be duplicated, and the stream may be
// cut after a few points as a truncation error.  Emit failures from
// the coordinator pass through unwrapped.
func (c *chaosTransport) Run(ctx context.Context, worker string, job Job, emit func(PointResult) error) error {
	d := c.sched.Dispatch()
	if d.Delay > 0 {
		t := time.NewTimer(d.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return &TransportError{Worker: worker, Op: "submit", Err: ctx.Err()}
		}
	}
	if d.Refuse {
		return &TransportError{Worker: worker, Op: "submit", Err: errRefused}
	}
	truncated := errors.New("chaos: stream cut") // unique sentinel per call
	delivered := 0
	err := c.inner.Run(ctx, worker, job, func(pr PointResult) error {
		if d.TruncateAfter >= 0 && delivered >= d.TruncateAfter {
			return truncated
		}
		delivered++
		if err := emit(pr); err != nil {
			return err
		}
		if d.Duplicate {
			return emit(pr)
		}
		return nil
	})
	if errors.Is(err, truncated) {
		return &TransportError{Worker: worker, Op: "stream", Err: ErrTruncatedStream}
	}
	return err
}

// Status fetches through the inner transport, with injected flaps: a
// flapped probe fails even though the worker is alive.  A draining
// answer passes through un-flapped, so chaos never turns a draining
// worker into a dead-looking one.
func (c *chaosTransport) Status(ctx context.Context, worker string) (Status, error) {
	st, err := c.inner.Status(ctx, worker)
	if err == nil && !st.Draining && c.sched.Flap() {
		return Status{}, &TransportError{Worker: worker, Op: "status", Err: errProbeDropped}
	}
	return st, err
}

// chaosStore wraps an inner simulate.Store with injected read misses
// and dropped writes from a chaosSchedule.  Both faults respect the
// Store contract — best-effort, never an error — so they model a flaky
// or partitioned store exactly: a forced miss re-simulates, a dropped
// write leaves the store cold for the next reader.
type chaosStore struct {
	inner simulate.Store
	sched *chaosSchedule
}

// Get forwards to the inner store unless the schedule forces a miss.
func (cs *chaosStore) Get(k simulate.Key) (simulate.Result, bool) {
	if cs.sched.MissGet() {
		return simulate.Result{}, false
	}
	return cs.inner.Get(k)
}

// Put forwards to the inner store unless the schedule drops the write.
func (cs *chaosStore) Put(k simulate.Key, res simulate.Result) {
	if cs.sched.DropPut() {
		return
	}
	cs.inner.Put(k, res)
}

// Stats returns the inner store's counters.
func (cs *chaosStore) Stats() simulate.CacheStats { return cs.inner.Stats() }

// TestChaosScheduleDeterminism: two schedules with the same config
// must draw identical decision sequences — the reproducibility
// contract the soak test's per-seed runs depend on.
func TestChaosScheduleDeterminism(t *testing.T) {
	a, b := newChaosSchedule(defaultChaos(42)), newChaosSchedule(defaultChaos(42))
	for i := 0; i < 200; i++ {
		if da, db := a.Dispatch(), b.Dispatch(); da != db {
			t.Fatalf("draw %d: %+v != %+v", i, da, db)
		}
		if fa, fb := a.Flap(), b.Flap(); fa != fb {
			t.Fatalf("flap draw %d: %v != %v", i, fa, fb)
		}
		if ma, mb := a.MissGet(), b.MissGet(); ma != mb {
			t.Fatalf("miss draw %d: %v != %v", i, ma, mb)
		}
		if pa, pb := a.DropPut(), b.DropPut(); pa != pb {
			t.Fatalf("drop draw %d: %v != %v", i, pa, pb)
		}
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("stats diverged: %s != %s", sa, sb)
	}
}

// TestChaosScheduleSeedsDiffer: different seeds must not replay the
// same schedule (probabilistically certain over enough draws).
func TestChaosScheduleSeedsDiffer(t *testing.T) {
	a, b := newChaosSchedule(defaultChaos(1)), newChaosSchedule(defaultChaos(2))
	for i := 0; i < 200; i++ {
		if a.Dispatch() != b.Dispatch() {
			return
		}
	}
	t.Fatal("200 identical draws from different seeds")
}

// TestChaosZeroConfigInjectsNothing: the zero chaosConfig is a no-op
// schedule.
func TestChaosZeroConfigInjectsNothing(t *testing.T) {
	s := newChaosSchedule(chaosConfig{Seed: 7})
	for i := 0; i < 100; i++ {
		d := s.Dispatch()
		if d.Delay != 0 || d.Refuse || d.TruncateAfter >= 0 || d.Duplicate {
			t.Fatalf("zero config injected %+v", d)
		}
		if s.Flap() || s.MissGet() || s.DropPut() {
			t.Fatal("zero config injected a probe or store fault")
		}
	}
	st := s.Stats()
	if st.Injected() != 0 {
		t.Fatalf("zero config stats: %s", st)
	}
	if st.Decisions != 400 {
		t.Fatalf("decisions %d, want 400", st.Decisions)
	}
}

// TestChaosDefaultInjectsEveryClass: the default config at rate
// ~0.1..0.3 per class must inject every fault class within a few
// hundred draws, with Dispatch respecting the configured bounds.
func TestChaosDefaultInjectsEveryClass(t *testing.T) {
	s := newChaosSchedule(defaultChaos(3))
	for i := 0; i < 500; i++ {
		d := s.Dispatch()
		if d.Delay < 0 || d.Delay > 2*time.Millisecond {
			t.Fatalf("delay %v out of (0, MaxLatency]", d.Delay)
		}
		if d.TruncateAfter < -1 || d.TruncateAfter > 2 {
			t.Fatalf("truncate-after %d out of range", d.TruncateAfter)
		}
		s.Flap()
		s.MissGet()
		s.DropPut()
	}
	st := s.Stats()
	if st.Delays == 0 || st.Refusals == 0 || st.Truncations == 0 ||
		st.Duplicates == 0 || st.Flaps == 0 || st.StoreMisses == 0 || st.StoreDrops == 0 {
		t.Fatalf("a fault class never fired over 500 draws: %s", st)
	}
	if st.Injected() == 0 || st.Decisions != 2000 {
		t.Fatalf("stats: %s", st)
	}
}

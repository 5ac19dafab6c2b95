// Package chaos generates seeded fault schedules for the distributed
// sweep service: deterministic streams of injected transport and store
// faults — latency, connection refusal, mid-stream truncation,
// duplicated result lines, Status-probe flaps, store read misses and
// dropped writes — that distrib.NewChaos and distrib.NewChaosStore
// replay against any inner transport or store.
//
// A Schedule is a probability table (Config) plus a seeded RNG: every
// decision is one draw, serialized under a mutex, so the decision
// *sequence* for a given seed is fixed even though which concurrent
// dispatch consumes which decision depends on goroutine interleaving.
// That is exactly the contract a chaos soak needs — the fault mix is
// reproducible, the placement is adversarial — while the sweep's
// merged output must stay byte-identical regardless.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Config is the probability table of one fault schedule.  Every field
// is the per-decision probability (in [0,1]) of injecting that fault;
// the zero Config injects nothing.
type Config struct {
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

// Default returns a moderately hostile schedule configuration for the
// given seed: every fault class enabled at rates a correct coordinator
// must absorb without changing its merged output.
func Default(seed int64) Config {
	return Config{
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

// Dispatch is the fault decision for one transport Run call.
type Dispatch struct {
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

// Stats counts the faults a schedule has injected so far.
type Stats struct {
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
func (s Stats) Injected() int {
	return s.Delays + s.Refusals + s.Truncations + s.Duplicates + s.Flaps + s.StoreMisses + s.StoreDrops
}

// String renders the counters compactly.
func (s Stats) String() string {
	return fmt.Sprintf("%d faults over %d decisions (%d delays, %d refusals, %d truncations, %d duplicates, %d flaps, %d store misses, %d store drops)",
		s.Injected(), s.Decisions, s.Delays, s.Refusals, s.Truncations, s.Duplicates, s.Flaps, s.StoreMisses, s.StoreDrops)
}

// Schedule is a running fault schedule: a Config plus the seeded RNG
// drawing its decisions.  It is safe for concurrent use; draws are
// serialized, so a seed fixes the decision sequence.
type Schedule struct {
	mu    sync.Mutex
	cfg   Config
	rng   *rand.Rand
	stats Stats
}

// New builds a schedule from the configuration.
func New(cfg Config) *Schedule {
	if cfg.MaxLatency <= 0 {
		cfg.MaxLatency = 2 * time.Millisecond
	}
	return &Schedule{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Dispatch draws the fault decision for one transport Run call.
func (s *Schedule) Dispatch() Dispatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Decisions++
	d := Dispatch{TruncateAfter: -1}
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
func (s *Schedule) Flap() bool {
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
func (s *Schedule) MissGet() bool {
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
func (s *Schedule) DropPut() bool {
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
func (s *Schedule) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

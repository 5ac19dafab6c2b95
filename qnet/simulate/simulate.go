// Package simulate is the event-driven mesh-interconnect simulator of
// the paper's Section 5 behind a builder-style public API: a mesh grid
// of teleporter/generator/purifier nodes executing logical instruction
// streams under full contention.
//
// A Machine is built once from a grid, a layout and functional options,
// then run against any number of Programs:
//
//	m, err := simulate.New(grid, simulate.MobileQubit,
//		simulate.WithResources(16, 16, 8),
//		simulate.WithPurifyDepth(3),
//		simulate.WithSeed(42))
//	res, err := m.Run(ctx, qnet.QFT(grid.Tiles()))
//
// Run takes a context.Context; cancellation and deadlines propagate into
// the discrete-event loop, so a runaway configuration can be aborted.
//
// A Session wraps a Machine for a sequence of runs, deriving a distinct
// reproducible RNG seed per run and recording every result.  Sweep
// expands a parameter space (grids × layouts × resources × programs ×
// depths × routing policies × seeds) and fans the runs out across
// worker goroutines — see sweep.go.  Routing policies come from
// qnet/route (WithRouting, Space.Routings); the default is the paper's
// dimension-order routing.
//
// Because every run is a pure function of its resolved configuration,
// results are content-addressable: Machine.CacheKey hashes the full
// run point and Cache stores Results under it (in-memory LRU plus an
// optional on-disk JSON store), so a sweep installed with WithCache or
// WithStore only simulates points it has never seen — see cache.go and
// the Example_cachedSweep function.  A key is the SHA-256 of the
// point's configuration bytes followed by its program's fingerprint
// (name, qubit count and every op).  Sweep, Stream and qnet/distrib's
// coordinator resolve their points through one function, Space.Expand:
// it decodes the listed points only, applies Space.Options once, builds
// every point's Machine across goroutines, all sharing one flight
// group, and with a store derives every key with each program's
// fingerprint serialized once.  The same options attach a store to a
// Machine, making repeated Run and Session calls cache hits too.
// Ensemble statistics over the seed dimension live in the sibling
// package qnet/stats.
//
// Configuration mistakes surface as *qnet.ConfigError and capacity
// overruns as *qnet.CapacityError, matchable with errors.Is/errors.As.
package simulate

import (
	"context"
	"time"

	"repro/internal/netsim"

	"repro/qnet"
	"repro/qnet/fault"
	"repro/qnet/route"
	"repro/qnet/trace"
)

// Layout selects the logical-qubit floorplan (Figure 15).
type Layout = netsim.Layout

// The two floorplans of the paper's Section 5.
const (
	// HomeBase gives every logical qubit a fixed home tile; operands
	// teleport in for each operation and back home afterwards.
	HomeBase = netsim.HomeBase
	// MobileQubit lets the moving operand stay wherever it travels.
	MobileQubit = netsim.MobileQubit
)

// Result summarizes a simulation run: execution time, channel and EPR
// statistics, event counts and resource utilizations.
type Result = netsim.Result

// Detail carries per-component statistics of a run (per-tile and
// per-link utilizations, turn counts, ASCII heatmaps) for bottleneck
// analysis.
type Detail = netsim.Detail

// StallError reports a simulation that stopped making progress before
// every operation completed — the structured form of what would
// otherwise be a hang, with the completed/total op counts attached.
type StallError = netsim.StallError

// machineSpec is the mutable state Options apply to: the simulator
// configuration plus machine-level attachments (the result store).
type machineSpec struct {
	cfg   netsim.Config
	store Store
}

// Option configures a Machine.  Options are applied in order over the
// paper's defaults (depth-3 purifiers, level-2 Steane code, 600-cell
// hops, t=g=p=16, XY dimension-order routing, the Table 1-2 ion-trap
// device).  WithCache and WithStore implement both Option and
// SweepOption, so one store value threads through machines and sweeps
// alike.
type Option interface {
	applyMachine(*machineSpec)
}

// optionFunc adapts a plain function to the Option interface.
type optionFunc func(*machineSpec)

func (f optionFunc) applyMachine(s *machineSpec) { f(s) }

// WithParams replaces the device constants (Tables 1 and 2).
func WithParams(p qnet.Params) Option {
	return optionFunc(func(s *machineSpec) { s.cfg.Params = p })
}

// WithResources sets the per-node resource counts: t teleporters per T'
// node, g generators per G node and p queue purifiers per P node.
func WithResources(t, g, p int) Option {
	return optionFunc(func(s *machineSpec) {
		s.cfg.Teleporters, s.cfg.Generators, s.cfg.Purifiers = t, g, p
	})
}

// WithPurifyDepth sets the queue-purifier tree depth (the paper uses 3:
// 8 pairs per purified output).
func WithPurifyDepth(depth int) Option {
	return optionFunc(func(s *machineSpec) { s.cfg.PurifyDepth = depth })
}

// WithCodeLevel sets the Steane concatenation level of transported
// logical qubits (the paper uses 2: 49 physical qubits).
func WithCodeLevel(level int) Option {
	return optionFunc(func(s *machineSpec) { s.cfg.CodeLevel = level })
}

// WithHopCells sets the physical span of one mesh hop (the paper derives
// 600 cells from the latency crossover).
func WithHopCells(cells int) Option {
	return optionFunc(func(s *machineSpec) { s.cfg.HopCells = cells })
}

// WithTurnCells sets the in-router ballistic distance paid on X/Y turns.
func WithTurnCells(cells int) Option {
	return optionFunc(func(s *machineSpec) { s.cfg.TurnCells = cells })
}

// WithRouting sets the machine's routing policy — the component that
// decides each channel's hop path across the mesh (see qnet/route).
// nil (the default) selects route.XYOrder, the paper's dimension-order
// routing; distinct policies produce distinct cache keys.
func WithRouting(p route.Policy) Option {
	return optionFunc(func(s *machineSpec) { s.cfg.Route = p })
}

// WithSeed sets the base seed of the machine's per-run RNG.  Two
// machines with equal configurations and seeds produce identical runs.
func WithSeed(seed int64) Option {
	return optionFunc(func(s *machineSpec) { s.cfg.Seed = seed })
}

// WithFailureRate injects stochastic purification failure: each batch
// fails end-to-end purification with this probability and a replacement
// batch is sent through the network.  Zero (the default) keeps the
// simulation fully deterministic regardless of seed.
func WithFailureRate(rate float64) Option {
	return optionFunc(func(s *machineSpec) { s.cfg.PurifyFailureRate = rate })
}

// WithFaults attaches a mesh fault spec (qnet/fault): dead links, per-
// link batch drops and degraded-fidelity regions, materialized from
// the run's seeded RNG before any other draw, so the pattern is a pure
// function of (spec, grid, seed) and fault.Preview reproduces it.  The
// zero Spec (the default) is a healthy mesh and keeps the simulation
// byte-identical to a machine built without the option.  On a mesh
// with dead links, pair route.FaultAdaptive (WithRouting) to route
// around the holes; other policies fail blocked paths with a
// structured error.
func WithFaults(sp fault.Spec) Option {
	return optionFunc(func(s *machineSpec) { s.cfg.Faults = sp })
}

// WithTrace attaches a telemetry tracer (qnet/trace) to the machine:
// every Run samples per-router occupancy, per-link utilization and
// drop/resend events into it over simulated time.  The tracer is an
// observer, not a model change — a traced run executes the same events
// and produces a byte-identical Result, so CacheKey ignores it.  A
// traced Run always simulates (a cached Result has nothing for the
// tracer to observe) but still stores its result into an attached
// cache.  A Tracer records one run at a time; attach a fresh tracer per
// concurrent run (Machine.WithTrace derives per-run machines cheaply).
// Attached through Space.Options it would reach every point of a sweep,
// so Sweep and Stream reject it with a *qnet.ConfigError; trace one
// point through Space.Machine(pt), then Machine.WithTrace.
func WithTrace(t *trace.Tracer) Option {
	return optionFunc(func(s *machineSpec) { s.cfg.Trace = t })
}

// Machine is a configured, validated simulated quantum computer.  It is
// immutable after New and safe for concurrent use: every Run builds
// fresh simulator state (including a per-run RNG), so one Machine can
// serve many goroutines.  A Machine built with WithCache or WithStore
// serves repeated Runs from that store, and concurrent Runs that share
// a cache key simulate once.
type Machine struct {
	cfg     netsim.Config
	store   Store
	flights *flightGroup
}

// New builds a Machine on the given grid and layout, applying opts over
// the paper's defaults.  It returns a *qnet.ConfigError describing the
// first invalid setting.
func New(grid qnet.Grid, layout Layout, opts ...Option) (*Machine, error) {
	s := newSpec(opts)
	s.cfg.Grid, s.cfg.Layout = grid, layout
	return s.build(newFlightGroup())
}

// newSpec applies opts, in order, over the paper's defaults.  No option
// sets the grid or the layout: New and a Space's points set those.
func newSpec(opts []Option) machineSpec {
	s := machineSpec{cfg: netsim.DefaultConfig(qnet.Grid{}, HomeBase, 16, 16, 16)}
	for _, opt := range opts {
		opt.applyMachine(&s)
	}
	return s
}

// build validates the spec's configuration and returns its Machine,
// whose runs claim their keys in flights.
func (s machineSpec) build(flights *flightGroup) (*Machine, error) {
	m, err := s.machine(flights)
	if err != nil {
		return nil, err
	}
	return &m, nil
}

// machine is build returning the Machine by value, so that a caller
// building many can keep them in one slice.
func (s machineSpec) machine(flights *flightGroup) (Machine, error) {
	if err := s.cfg.Validate(); err != nil {
		return Machine{}, err
	}
	return Machine{cfg: s.cfg, store: s.store, flights: flights}, nil
}

// Grid returns the machine's mesh.
func (m *Machine) Grid() qnet.Grid { return m.cfg.Grid }

// Layout returns the machine's floorplan policy.
func (m *Machine) Layout() Layout { return m.cfg.Layout }

// Routing returns the machine's routing policy (nil means the default
// dimension-order policy; RoutingName canonicalizes).
func (m *Machine) Routing() route.Policy { return m.cfg.Route }

// RoutingName returns the canonical name of the machine's routing
// policy ("xy" when none was set explicitly).
func (m *Machine) RoutingName() string { return route.NameOf(m.cfg.Route) }

// Seed returns the machine's base RNG seed.
func (m *Machine) Seed() int64 { return m.cfg.Seed }

// Faults returns the machine's fault spec (the zero Spec on a healthy
// machine).
func (m *Machine) Faults() fault.Spec { return m.cfg.Faults }

// Trace returns the machine's attached tracer, or nil when the machine
// runs untraced.
func (m *Machine) Trace() *trace.Tracer { return m.cfg.Trace }

// WithTrace returns a copy of the machine with the given tracer
// attached (or detached, with nil).  The copy shares the original's
// configuration and store; because a Tracer records one run at a time,
// deriving a per-run machine this way is how concurrent runs each get
// their own telemetry (a Stream's points get theirs through its watch
// hook).
func (m *Machine) WithTrace(t *trace.Tracer) *Machine {
	m2 := *m
	m2.cfg.Trace = t
	return &m2
}

// Cache returns the machine's attached result cache, or nil when the
// machine has no store or its Store is not a *Cache (use Store for the
// general form).
func (m *Machine) Cache() *Cache {
	c, _ := m.store.(*Cache)
	return c
}

// Store returns the machine's attached result store, or nil when the
// machine was built without WithCache or WithStore.
func (m *Machine) Store() Store { return m.store }

// Run executes one logical instruction stream on the machine.  The
// context is threaded into the discrete-event loop: when ctx is
// cancelled or its deadline passes, Run aborts and returns an error
// wrapping ctx.Err().  When the machine carries a result store
// (WithCache/WithStore), Run consults it first and stores successful
// runs back, so a warm re-run of the same configuration and program is
// a lookup instead of a simulation (Cache().Stats() reports the hit).
func (m *Machine) Run(ctx context.Context, prog qnet.Program) (Result, error) {
	res, _, err := m.run(ctx, m.cfg, prog, m.keyOf(m.cfg, prog), nil)
	return res, err
}

// keyOf returns the key run takes for prog under cfg: its content
// address when the machine has a store, and otherwise the zero Key,
// which run ignores, so a storeless run hashes nothing.
func (m *Machine) keyOf(cfg netsim.Config, prog qnet.Program) Key {
	if m.store == nil {
		return Key{}
	}
	return keyFor(cfg, prog)
}

// run is the one path from a run point to its Result: Machine.Run,
// Session.Run and every Sweep point come through here.  cfg is the
// machine's configuration with any per-run seed applied, and key is
// keyOf(cfg, prog), hashed once by the caller.  Without a store it
// simulates.  With one, it claims key in m.flights (so concurrent runs
// of one key simulate once), answers from the store when it can, and
// otherwise simulates and stores the Result; cached reports a store
// hit.  A traced run never answers from the store — the tracer
// observes the simulation itself, and a stored Result has no time
// series to give it — but its result is still stored: traced and
// untraced runs produce identical Results, so the entry serves either.
// watch is Stream's per-point hook (nil elsewhere): it is called only
// once the run is about to simulate, its tracer observes the
// simulation, and its done is called when the simulation ends.
func (m *Machine) run(ctx context.Context, cfg netsim.Config, prog qnet.Program, key Key, watch func() (*trace.Tracer, func())) (res Result, cached bool, err error) {
	if err := netsim.CheckProgram(cfg.Grid, prog); err != nil {
		return Result{}, false, err
	}
	if m.store != nil && cfg.Trace == nil {
		if err := m.flights.claim(ctx, key); err != nil {
			return Result{}, false, err
		}
		defer m.flights.release(key)
		if res, ok := m.store.Get(key); ok {
			return res, true, nil
		}
	}
	var done func()
	if watch != nil {
		cfg.Trace, done = watch()
	}
	res, err = netsim.RunContext(ctx, cfg, prog)
	if done != nil {
		done()
	}
	if err == nil && m.store != nil {
		m.store.Put(key, res)
	}
	return res, false, err
}

// RunDetailed is Run plus per-component statistics for bottleneck
// analysis and heatmaps.  It always simulates — Details are not cached
// — so use Run when only the Result matters.
func (m *Machine) RunDetailed(ctx context.Context, prog qnet.Program) (Result, *Detail, error) {
	return netsim.RunDetailedContext(ctx, m.cfg, prog)
}

// Session runs a sequence of programs on one Machine.  Each run gets a
// distinct, reproducibly derived RNG seed (run i of two sessions on
// identical machines behaves identically), and every result is
// recorded.  A Session is not safe for concurrent use; create one per
// goroutine, or use Sweep for parallel fan-out.
type Session struct {
	machine *Machine
	runs    int
	results []Result
}

// NewSession starts a fresh run sequence on the machine.
func (m *Machine) NewSession() *Session {
	return &Session{machine: m}
}

// deriveSeed mixes a base seed and a run index into a decorrelated
// per-run seed (splitmix64 finalizer).
func deriveSeed(base int64, run int) int64 {
	z := uint64(base) + uint64(run+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Run executes prog as the session's next run.
func (s *Session) Run(ctx context.Context, prog qnet.Program) (Result, error) {
	m := s.machine
	cfg := m.cfg
	cfg.Seed = deriveSeed(cfg.Seed, s.runs)
	res, _, err := m.run(ctx, cfg, prog, m.keyOf(cfg, prog), nil)
	if err != nil {
		return Result{}, err
	}
	s.runs++
	s.results = append(s.results, res)
	return res, nil
}

// Runs returns the number of completed runs.
func (s *Session) Runs() int { return s.runs }

// Results returns the recorded results of all completed runs, in run
// order.  The returned slice is the session's own; do not modify it.
func (s *Session) Results() []Result { return s.results }

// TotalExec sums the execution times of all completed runs.
func (s *Session) TotalExec() time.Duration {
	var total time.Duration
	for _, r := range s.results {
		total += r.Exec
	}
	return total
}

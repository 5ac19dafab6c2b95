// Package netsim is the event-driven communication simulator of the
// paper's Section 5: a mesh grid of logical-qubit tiles with T'
// (teleporter), G (generator), C (corrector) and P (queue purifier)
// nodes, executing a logical instruction stream with full contention
// for teleporters, generators, purifiers and per-link storage.  The
// hop path of every logical communication is chosen by a pluggable
// route.Policy (Config.Route); the default is the paper's
// dimension-order (X then Y) routing.
//
// Each logical communication sets up a quantum channel: EPR pairs are
// chain-teleported hop by hop from source to destination (consuming a
// link pair from the G node of every link crossed and a teleporter from
// the directional set of every T' node left), then purified by
// depth-PurifyDepth queue purifiers at both endpoints, and finally the
// 7^CodeLevel physical qubits of the logical qubit are teleported with
// the delivered high-fidelity pairs.
//
// Each tile's T' node is the router of the paper's Figure 6 (node): an
// X and a Y teleporter set, and storage for the batches arriving over
// each incoming link.  The classical control messages that travel
// beside the pairs (Section 3.2) are counted, not simulated as traffic:
// the data teleport waits for the correction bits to cross the path,
// and the corrector charges every batch the worst Pauli correction, two
// one-qubit gates, so no Pauli frame is tracked.
//
// Simulation granularity is one purifier batch: 2^PurifyDepth EPR pairs
// move through the network as a unit, since exactly that many arrivals
// produce one purified output pair (Figure 14).  With the paper's
// parameters this is 8 pairs per batch and 49 batches (392 pairs) per
// logical communication, matching Section 5.3.
package netsim

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ecc"
	"repro/internal/mesh"
	"repro/internal/phys"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"

	"repro/qnet"
	"repro/qnet/fault"
	"repro/qnet/route"
	"repro/qnet/trace"
)

// Layout selects the logical-qubit placement policy of Section 5
// (Figure 15).
type Layout int

const (
	// HomeBase gives every logical qubit a fixed home tile with room for
	// one visitor; the moving operand teleports in for each operation
	// and teleports back home afterwards.
	HomeBase Layout = iota
	// MobileQubit lets the moving operand stay wherever it travels;
	// qubits return home only after their final operation.  With the
	// snake placement this makes the QFT walk almost entirely local.
	MobileQubit
)

// String names the layout.
func (l Layout) String() string {
	switch l {
	case HomeBase:
		return "HomeBase"
	case MobileQubit:
		return "MobileQubit"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Config parameterizes a simulation run.
type Config struct {
	// Params are the device constants (Tables 1 and 2).
	Params phys.Params
	// Grid is the tile mesh; the paper simulates 16×16.
	Grid mesh.Grid
	// Layout is the placement policy.
	Layout Layout
	// Teleporters is t, the teleporter count per T' node (split into X
	// and Y sets).
	Teleporters int
	// Generators is g, the generator count per G node (one G node per
	// link).
	Generators int
	// Purifiers is p, the queue-purifier count per P node (one P node
	// per tile).
	Purifiers int
	// PurifyDepth is the queue-purifier tree depth; the paper uses 3.
	PurifyDepth int
	// CodeLevel is the Steane concatenation level; the paper transports
	// level-2 logical qubits (49 physical qubits).
	CodeLevel int
	// HopCells is the physical span of one mesh hop (600 cells).
	HopCells int
	// TurnCells is the in-router ballistic distance between teleporter
	// sets, paid on X/Y turns.
	TurnCells int
	// Route is the routing policy deciding each channel's hop path
	// across the mesh.  nil selects route.XYOrder, the paper's
	// dimension-order routing; any policy (including the adaptive
	// route.LeastCongested, which consults the routers' live loads at
	// channel-setup time and again for every resent batch) can be
	// plugged in without touching the simulator core.
	Route route.Policy
	// PurifyFailureRate injects stochastic purification failure: each
	// batch fails end-to-end purification with this probability and a
	// replacement batch must be sent through the network (the queue
	// purifier rebuilds the lost subtree naturally, Figure 14).  Zero
	// disables injection and keeps the simulation fully deterministic.
	PurifyFailureRate float64
	// Faults is the mesh fault spec: dead links, per-link batch drops
	// and degraded-fidelity regions, materialized from the run's seeded
	// RNG at build time (before any failure-injection draw, so
	// fault.Preview reproduces the exact pattern).  The zero Spec is a
	// healthy mesh and leaves the simulation byte-identical to a build
	// without the fault layer.
	Faults fault.Spec
	// Seed drives the failure-injection and fault-materialization RNG;
	// runs with equal seeds are reproducible.
	Seed int64
	// Trace attaches a telemetry tracer to the run: it is bound to the
	// mesh at build time and sampled at its interval boundaries through
	// the engine's probe hook, recording per-router occupancy, per-link
	// utilization and drop/resend events over simulated time.  nil (the
	// default) disables tracing at the cost of one nil check per event.
	// A tracer is an observer, never part of the model — a traced run
	// executes the same events and produces a byte-identical Result —
	// which is why the field is excluded from result cache keys.
	Trace *trace.Tracer
}

// DefaultConfig returns the paper's simulation parameters on the given
// grid with the given per-node resource counts.
func DefaultConfig(grid mesh.Grid, layout Layout, t, g, p int) Config {
	return Config{
		Params:      phys.IonTrap2006(),
		Grid:        grid,
		Layout:      layout,
		Teleporters: t,
		Generators:  g,
		Purifiers:   p,
		PurifyDepth: 3,
		CodeLevel:   2,
		HopCells:    600,
		TurnCells:   20,
	}
}

// Validate reports the first invalid setting as a *qnet.ConfigError
// naming the field, so the error matches qnet.ErrInvalidConfig.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return &qnet.ConfigError{Field: "Params", Value: "-", Reason: err.Error()}
	}
	if c.Grid.Tiles() == 0 {
		return &qnet.ConfigError{Field: "Grid", Value: c.Grid, Reason: "grid must contain at least one tile"}
	}
	if c.Layout != HomeBase && c.Layout != MobileQubit {
		return &qnet.ConfigError{Field: "Layout", Value: int(c.Layout), Reason: "want HomeBase or MobileQubit"}
	}
	if c.Teleporters < 1 {
		return &qnet.ConfigError{Field: "Teleporters", Value: c.Teleporters, Reason: "must be >= 1"}
	}
	if c.Generators < 1 {
		return &qnet.ConfigError{Field: "Generators", Value: c.Generators, Reason: "must be >= 1"}
	}
	if c.Purifiers < 1 {
		return &qnet.ConfigError{Field: "Purifiers", Value: c.Purifiers, Reason: "must be >= 1"}
	}
	if c.PurifyDepth < 1 || c.PurifyDepth > 16 {
		return &qnet.ConfigError{Field: "PurifyDepth", Value: c.PurifyDepth, Reason: "must be in [1,16]"}
	}
	if c.CodeLevel < 0 {
		return &qnet.ConfigError{Field: "CodeLevel", Value: c.CodeLevel, Reason: "must be >= 0"}
	}
	if c.HopCells < 1 {
		return &qnet.ConfigError{Field: "HopCells", Value: c.HopCells, Reason: "must be >= 1"}
	}
	if c.TurnCells < 0 {
		return &qnet.ConfigError{Field: "TurnCells", Value: c.TurnCells, Reason: "must be >= 0"}
	}
	if c.PurifyFailureRate < 0 || c.PurifyFailureRate >= 1 {
		return &qnet.ConfigError{Field: "FailureRate", Value: c.PurifyFailureRate, Reason: "must be in [0,1)"}
	}
	if err := c.Faults.Validate(c.Grid); err != nil {
		return &qnet.ConfigError{Field: "Faults", Value: c.Faults.String(), Reason: err.Error()}
	}
	return nil
}

// CheckProgram reports whether prog can run on grid: a malformed
// program is a *qnet.ConfigError on field "Program", and more logical
// qubits than tiles is a *qnet.CapacityError on "tiles".
func CheckProgram(grid mesh.Grid, prog workload.Program) error {
	if err := prog.Validate(); err != nil {
		return &qnet.ConfigError{Field: "Program", Value: prog.Name, Reason: err.Error()}
	}
	if prog.Qubits > grid.Tiles() {
		return &qnet.CapacityError{Resource: "tiles", Need: prog.Qubits, Have: grid.Tiles()}
	}
	return nil
}

// Result summarizes a simulation run.
type Result struct {
	// Exec is the total execution time of the instruction stream,
	// including trailing return-home communications.
	Exec time.Duration
	// Ops is the number of logical operations executed.
	Ops int
	// Channels is the number of quantum channels set up (communications;
	// Home Base pays two per op, there and back).
	Channels uint64
	// LocalOps is the number of ops that needed no network communication
	// (operands co-located).
	LocalOps uint64
	// PairsDelivered is the total EPR pairs delivered to channel
	// endpoints.
	PairsDelivered uint64
	// PairHops is the total pair-teleportations performed (the network
	// strain metric of Figure 11).
	PairHops uint64
	// Turns is the total number of X/Y turns taken inside router nodes
	// (each paying the ballistic set-switch penalty once), summed over
	// every batch of every channel.  Dimension-order routing turns at
	// most once per path; zigzag turns at almost every hop.
	Turns uint64
	// DroppedBatches counts batches lost in flight to fault-model link
	// drops (each triggering a resend from the channel source).  The
	// json tag keeps a healthy run's serialized Result — and the parity
	// goldens — byte-identical to the pre-fault-layer form.
	DroppedBatches uint64 `json:",omitempty"`
	// DeadLinks is the number of mesh links the fault model disabled
	// for this run (0 on a healthy mesh; omitted from JSON then, like
	// DroppedBatches).
	DeadLinks int `json:",omitempty"`
	// Events is the number of simulation events processed.
	Events uint64
	// ClassicalMessages counts the classical control messages sent beside
	// the pairs: one per pair teleported over a hop (PairHops), plus
	// one per purification, 2^PurifyDepth − 1 for every batch purified
	// at its endpoints (a batch that then fails included).
	ClassicalMessages uint64
	// FailedBatches counts purification batches lost to injected
	// failures (and therefore re-sent).
	FailedBatches uint64
	// MeanChannelLatency is the average channel setup-to-data-delivery
	// latency.
	MeanChannelLatency time.Duration
	// MaxChannelLatency is the worst channel latency.
	MaxChannelLatency time.Duration
	// TeleporterUtil, GeneratorUtil and PurifierUtil are mean resource
	// utilizations over the run.
	TeleporterUtil float64
	GeneratorUtil  float64
	PurifierUtil   float64
}

// simulator carries the live state of one run.
type simulator struct {
	cfg    Config
	policy route.Policy
	// routes memoizes the hop paths of a deterministic policy; nil for
	// adaptive policies (which must re-consult live loads per channel).
	routes  *routeCache
	engine  *sim.Engine
	nodes   []node          // per tile T' node
	purify  []*sim.Resource // per tile P node
	gnodes  []*sim.Resource // per link G node, indexed by mesh.Grid.LinkIndex
	ports   []port          // per tile and direction, at 4·tile+dir (see port)
	sch     *sched.Scheduler
	place   *mesh.Placement
	pos     []mesh.Coord // current position of each logical qubit
	lastOp  []int        // final op index touching each qubit
	pending int          // channels + gates in flight (for drain detection)

	numBatches int
	code       ecc.Code
	// batchPairs is the EPR pairs per simulated batch (one purifier
	// tree's worth), a per-run constant of the hop datapath.
	batchPairs int
	// Every delay the datapath schedules is resolved once to a pinned
	// engine queue, so no event looks its delay up: a batch's G-node
	// service (genQ), its teleport without and with the turn penalty
	// (teleportQ, turnQ), its correction (correctQ) and the two-qubit
	// gate (gateQ).  Purification and data delivery depend on the path
	// length; paths holds their queues by hop count, resolved on first
	// use because a fault-adaptive detour can outgrow every minimal
	// path.
	genQ, teleportQ, turnQ, correctQ, gateQ sim.Queue
	paths                                   []pathQueues
	// freeOps, freeChannels and freeBatches recycle the op, channel and
	// batch records, so a run allocates records for its peak number in
	// flight, not one per op, channel or batch; the *Records counters
	// count the records ever minted, so a drained run can show every
	// one returned.
	freeOps        *opRun
	opRecords      int
	freeChannels   *channelRun
	channelRecords int
	freeBatches    *batch
	batchRecords   int

	channels       uint64
	localOps       uint64
	pairHops       uint64
	purifyMsgs     uint64 // purifications at channel endpoints
	turns          uint64
	failedBatches  uint64
	droppedBatches uint64
	// faults is the run's materialized fault pattern; nil for a healthy
	// mesh (the common case, costing nothing on the hot path).
	faults *fault.Model
	// err records the first structured abort (blocked route, partition,
	// exhausted resend budget); once set, no new work is issued and the
	// event loop drains, so the run terminates with this error instead
	// of stalling.
	err       error
	rng       *rand.Rand
	latencies sim.Tally
}

// fail records the first abort error; callbacks check s.err and stop
// issuing work, so the engine drains deterministically.
func (s *simulator) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// RunContext executes the program on the configured machine and
// returns the result.  The event loop polls ctx and aborts with the
// context's error when it is cancelled or times out.
func RunContext(ctx context.Context, cfg Config, prog workload.Program) (Result, error) {
	s, err := execute(ctx, cfg, prog)
	if err != nil {
		return Result{}, err
	}
	return s.result(prog), nil
}

// loads adapts the simulator's router nodes to the route.Loads
// interface, giving adaptive policies a live view of teleporter-set and
// storage pressure at channel-setup time.
type loads struct{ s *simulator }

// AxisLoad reports the directional teleporter-set pressure at c.
func (l loads) AxisLoad(c mesh.Coord, axis int) float64 {
	return l.s.nodes[l.s.cfg.Grid.Index(c)].axisLoad(axis)
}

// StorageLoad reports the incoming-storage occupancy at c.
func (l loads) StorageLoad(c mesh.Coord, from mesh.Direction) float64 {
	return l.s.nodes[l.s.cfg.Grid.Index(c)].storageLoad(from)
}

// traceSource adapts the simulator's router nodes and link generators
// to the trace.Source interface: the tracer samples exactly the
// counters the loads adapter normalizes for adaptive routing, so the
// exported time series is the live load view, not a parallel
// bookkeeping layer.
type traceSource struct{ s *simulator }

// SampleOccupancy fills per-tile router queue occupancy in batches.
func (ts traceSource) SampleOccupancy(dst []float64) {
	for i := range ts.s.nodes {
		dst[i] = float64(ts.s.nodes[i].occupancy())
	}
}

// SampleLinkBusy fills per-link cumulative generator busy time.
// Resource.Busy only reads, so sampling leaves the model untouched.
func (ts traceSource) SampleLinkBusy(dst []time.Duration) {
	for i, g := range ts.s.gnodes {
		dst[i] = g.Busy()
	}
}

// LinkCapacity returns the per-link generator unit count.
func (ts traceSource) LinkCapacity() int { return ts.s.cfg.Generators }

// The names of the four resource kinds a build makes.
const (
	teleporterName = "T' set"
	storageName    = "storage"
	purifierName   = "purifier"
	generatorName  = "generator"
)

func (s *simulator) build(prog workload.Program) error {
	cfg := s.cfg
	var err error
	code, err := ecc.Steane(cfg.CodeLevel)
	if err != nil {
		return err
	}
	s.policy = cfg.Route
	if s.policy == nil {
		s.policy = route.Default()
	}
	if route.IsDeterministic(s.policy) {
		// A deterministic policy answers every (src, dst) pair the same
		// way for the whole run, so its paths are resolved once and
		// replayed from the cache; adaptive policies (consulting live
		// loads) transparently bypass it.
		s.routes = newRouteCache(cfg.Grid.Tiles())
	}
	s.code = code
	s.numBatches = code.PairsPerLogicalTeleport()
	s.batchPairs = 1 << uint(cfg.PurifyDepth)
	s.genQ = s.engine.Queue(cfg.Params.GenerateTime() * time.Duration(ceilDiv(s.batchPairs, cfg.Generators)))
	// A teleporter set's units work in parallel, so a batch needs
	// ceil(batch/setSize) rounds of the hop-local teleport time.  A
	// batch that turns at the node also pays the router's ballistic
	// move between its X and Y sets.
	setSize := max(1, cfg.Teleporters/2)
	teleport := cfg.Params.TeleportTime(cfg.HopCells) * time.Duration(ceilDiv(s.batchPairs, setSize))
	s.teleportQ = s.engine.Queue(teleport)
	s.turnQ = s.engine.Queue(teleport + cfg.Params.BallisticTime(cfg.TurnCells))
	// The corrector applies the accumulated Pauli correction to each
	// pair of a batch in parallel, charged at its worst case of two
	// single-qubit gates.
	s.correctQ = s.engine.Queue(2 * cfg.Params.Times.OneQubitGate)
	s.gateQ = s.engine.Queue(cfg.Params.Times.TwoQubitGate)
	s.paths = make([]pathQueues, cfg.Grid.Width+cfg.Grid.Height-1)

	switch cfg.Layout {
	case HomeBase:
		s.place, err = mesh.RowMajorPlacement(cfg.Grid, prog.Qubits)
	case MobileQubit:
		s.place, err = mesh.SnakePlacement(cfg.Grid, prog.Qubits)
	}
	if err != nil {
		return err
	}

	// Storage is t cells per incoming link; we traffic in batches of
	// batchPairs pairs.
	storageBatches := max(1, cfg.Teleporters/s.batchPairs)
	// Each resource is named by its kind alone: a 16x16 run builds 512
	// teleporter sets, 960 storage semaphores, 256 purifiers and 480
	// generators, and a name is only read in a panic message.
	s.nodes = make([]node, cfg.Grid.Tiles())
	for i := range s.nodes {
		c := cfg.Grid.CoordOf(i)
		n := &s.nodes[i]
		for axis := range n.sets {
			r, err := sim.NewResource(s.engine, teleporterName, setSize)
			if err != nil {
				return err
			}
			n.sets[axis] = r
		}
		for _, d := range []mesh.Direction{mesh.East, mesh.West, mesh.North, mesh.South} {
			// Traffic arriving "from direction d" entered over the link
			// toward d; it exists if the neighbor in direction d does.
			if !cfg.Grid.Contains(c.Step(d)) {
				continue
			}
			st, err := sim.NewSemaphore(storageName, storageBatches)
			if err != nil {
				return err
			}
			n.storage[d] = st
		}
	}

	s.purify = make([]*sim.Resource, cfg.Grid.Tiles())
	for i := range s.purify {
		r, err := sim.NewResource(s.engine, purifierName, cfg.Purifiers)
		if err != nil {
			return err
		}
		s.purify[i] = r
	}

	// G nodes live in a dense slice indexed by mesh.Grid.LinkIndex (the
	// Links() enumeration order), replacing the former map[mesh.Link]
	// lookup on the per-hop hot path.
	s.gnodes = make([]*sim.Resource, cfg.Grid.NumLinks())
	for i := range s.gnodes {
		r, err := sim.NewResource(s.engine, generatorName, cfg.Generators)
		if err != nil {
			return err
		}
		s.gnodes[i] = r
	}

	s.ports = make([]port, 4*cfg.Grid.Tiles())
	for i := range s.nodes {
		c := cfg.Grid.CoordOf(i)
		for _, d := range []mesh.Direction{mesh.East, mesh.West, mesh.North, mesh.South} {
			next := c.Step(d)
			if !cfg.Grid.Contains(next) {
				continue // off the mesh: the zero port
			}
			li := cfg.Grid.LinkIndex(cfg.Grid.LinkFrom(c, d))
			to := cfg.Grid.Index(next)
			s.ports[4*i+int(d)] = port{
				link:    li,
				gen:     s.gnodes[li],
				tele:    s.nodes[i].sets[d.Axis()],
				storage: s.nodes[to].storage[d.Opposite()],
				to:      to,
			}
		}
	}

	s.sch, err = sched.New(prog)
	if err != nil {
		return err
	}

	// Every run gets its own RNG, unconditionally: sharing the global
	// source would make seed-0 and seedless runs irreproducible, and a
	// per-run source is what lets concurrent sweep workers run
	// identically-seeded points without interleaving draws.
	s.rng = rand.New(rand.NewSource(cfg.Seed))

	// The fault model draws first, before any failure-injection draw,
	// so the pattern is a pure function of (spec, grid, seed) and
	// fault.Preview reproduces it exactly.  An empty spec consumes no
	// draws and yields a nil model — the healthy fast path.
	s.faults, err = cfg.Faults.Build(cfg.Grid, s.rng)
	if err != nil {
		return err
	}

	s.pos = make([]mesh.Coord, prog.Qubits)
	s.lastOp = make([]int, prog.Qubits)
	for q := range s.pos {
		s.pos[q] = s.place.Home(q)
		s.lastOp[q] = -1
	}
	for k, op := range prog.Ops {
		s.lastOp[op.A] = k
		s.lastOp[op.B] = k
	}

	// The tracer (when attached) binds to this run's mesh and installs
	// itself as the engine's sampling probe.  The probe fires at exact
	// interval boundaries without scheduling events, so the traced run's
	// event stream — and Result — is byte-identical to an untraced one.
	if cfg.Trace != nil {
		cfg.Trace.Bind(cfg.Grid, traceSource{s})
		s.engine.SetProbe(cfg.Trace, cfg.Trace.Interval())
	}
	return nil
}

// tryIssue starts every currently-ready op; an aborted run issues
// nothing more, so in-flight events drain and the engine terminates.
func (s *simulator) tryIssue() {
	for s.err == nil {
		id, op, ok := s.sch.Issue()
		if !ok {
			return
		}
		s.startOp(id, op)
	}
}

// opRun is the reusable record of one logical operation in flight, or
// of a MobileQubit qubit's trip home after its last op.  It is the
// argument of every stage of the op flows — package-level func(any)
// continuations that channels and the engine run — so running an op
// captures no closure.  A record is taken from the simulator's free
// list when the op (or trip) starts and returned when it completes.
type opRun struct {
	s *simulator
	// id and op are the op's index and operands; a trip home carries
	// its qubit as op.A.
	id int
	op workload.Op
	// dst is the tile op.A travels to under MobileQubit, and stays on.
	dst  mesh.Coord
	next *opRun // free-list link
}

// newOp takes an op record off the free list, minting one only when the
// list is empty.
func (s *simulator) newOp(id int, op workload.Op) *opRun {
	o := s.freeOps
	if o == nil {
		s.opRecords++
		o = &opRun{s: s}
	} else {
		s.freeOps = o.next
	}
	o.id, o.op, o.next = id, op, nil
	return o
}

// freeOp returns a finished op's record to the free list.
func (s *simulator) freeOp(o *opRun) {
	*o = opRun{s: s, next: s.freeOps}
	s.freeOps = o
}

// startOp runs one logical operation according to the layout policy.
// Each flow is a chain of stages over the op's record:
//
//	HomeBase:    channel B's home -> A's home, homeArrived (gate),
//	             homeGated (channel back), opDone
//	MobileQubit: channel A's tile -> B's tile, mobileArrived (gate),
//	             opDone, then returnedHome for a qubit sent home
func (s *simulator) startOp(id int, op workload.Op) {
	s.pending++
	o := s.newOp(id, op)
	switch s.cfg.Layout {
	case HomeBase:
		// B teleports to A's home, they interact, B teleports back.
		s.channelCall(s.place.Home(op.B), s.place.Home(op.A), homeArrived, o)
	case MobileQubit:
		// A travels from wherever it is to B's current tile and stays.
		o.dst = s.pos[op.B]
		s.channelCall(s.pos[op.A], o.dst, mobileArrived, o)
	}
}

// homeArrived runs once B has reached A's home: the two interact.
func homeArrived(a any) {
	o := a.(*opRun)
	o.s.engine.ScheduleOn(o.s.gateQ, homeGated, o)
}

// homeGated runs after the gate: B teleports back to its home.
func homeGated(a any) {
	o := a.(*opRun)
	s := o.s
	s.channelCall(s.place.Home(o.op.A), s.place.Home(o.op.B), opDone, o)
}

// mobileArrived runs once A has reached B's tile, where it stays: the
// two interact.
func mobileArrived(a any) {
	o := a.(*opRun)
	s := o.s
	s.pos[o.op.A] = o.dst
	s.engine.ScheduleOn(s.gateQ, opDone, o)
}

// opDone runs when the op's last stage has ended.
func opDone(a any) {
	o := a.(*opRun)
	o.s.finishOp(o)
}

// finishOp completes the op in the scheduler, fires any return-home
// moves for qubits whose last op this was, and issues newly-ready work.
func (s *simulator) finishOp(o *opRun) {
	id, op := o.id, o.op
	s.freeOp(o)
	s.pending--
	if err := s.sch.Complete(id); err != nil {
		panic(err) // scheduler invariant violation: a simulator bug
	}
	if s.cfg.Layout == MobileQubit {
		for _, q := range [2]int{op.A, op.B} {
			if home := s.place.Home(q); s.lastOp[q] == id && s.pos[q] != home {
				s.pending++
				trip := s.newOp(id, workload.Op{A: q})
				trip.dst = home
				s.channelCall(s.pos[q], home, returnedHome, trip)
			}
		}
	}
	s.tryIssue()
}

// returnedHome runs once a qubit's trip home has arrived.
func returnedHome(a any) {
	o := a.(*opRun)
	s := o.s
	s.pos[o.op.A] = o.dst
	s.pending--
	s.freeOp(o)
}

// Allocation is one point of the paper's Figure 16 resource sweep:
// teleporters and generators are scaled to Ratio times the purifier
// count while the total area T+G+P stays fixed.
type Allocation struct {
	// Ratio is t/p (and g/p), the x-axis of Figure 16.
	Ratio int
	// T, G and P are the per-node resource counts.
	T, G, P int
}

// String renders the allocation like "t=g=4p (21/21/6)".
func (a Allocation) String() string {
	return fmt.Sprintf("t=g=%dp (%d/%d/%d)", a.Ratio, a.T, a.G, a.P)
}

// SweepAllocations builds the Figure 16 configurations: for each ratio r,
// the area budget is split so t = g ≈ r·p and t + g + p = area, with
// every count at least 1.
func SweepAllocations(area int, ratios []int) ([]Allocation, error) {
	if area < 3 {
		return nil, fmt.Errorf("netsim: area budget %d too small to hold t, g and p", area)
	}
	out := make([]Allocation, 0, len(ratios))
	for _, r := range ratios {
		if r < 1 {
			return nil, fmt.Errorf("netsim: ratio %d must be >= 1", r)
		}
		p := area / (2*r + 1)
		if p < 1 {
			p = 1
		}
		t := (area - p) / 2
		if t < 1 {
			t = 1
		}
		out = append(out, Allocation{Ratio: r, T: t, G: t, P: p})
	}
	return out, nil
}

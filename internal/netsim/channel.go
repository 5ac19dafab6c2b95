package netsim

import (
	"fmt"
	"time"

	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/workload"

	"repro/qnet/fault"
	"repro/qnet/route"
)

// dropBudgetPerBatch bounds the resend attempts of one channel at this
// many transmissions per logical batch: under any admissible drop rate
// the expected attempt count is far below it, so hitting the budget
// means the fault pattern is effectively severing the channel — the
// run then fails with a structured *fault.ExcessiveLossError instead
// of simulating (bounded but absurdly long) retry storms.  Only faulty
// runs enforce it; a healthy run's resends (purification failures) are
// governed by PurifyFailureRate < 1 alone, exactly as before the fault
// layer.
const dropBudgetPerBatch = 1000

// channelCall sets up a quantum channel from src to dst and teleports a
// logical qubit across it, calling done(arg) when the data has arrived.
//
// Pipeline per batch of 2^PurifyDepth pairs (one purified output):
//
//	for each hop: [storage credit at next tile] -> [link pairs from the
//	G node] -> [turn penalty if changing axis] -> [teleporter from the
//	directional set] -> next hop
//	then: [corrector] -> [queue purifier at both endpoints] -> output
//
// When all numBatches outputs are ready, the logical qubit's physical
// qubits teleport over (in parallel, one delivered pair each).
func (s *simulator) channelCall(src, dst mesh.Coord, done func(any), arg any) {
	if s.err != nil {
		return // aborted run: issue nothing more, let the engine drain
	}
	if src == dst {
		s.localOps++
		done(arg)
		return
	}
	s.channels++

	// The routing policy decides the hop path at setup time; adaptive
	// policies see the routers' live loads through the loads adapter.
	// Deterministic policies answer repeated (src, dst) pairs from the
	// per-run route cache, skipping the policy call, the validation
	// walk and the path allocation.  (The cache is scoped to one run,
	// hence to one materialized fault pattern, so caching fault-aware
	// routes is sound.)
	srcIdx, dstIdx := s.cfg.Grid.Index(src), s.cfg.Grid.Index(dst)
	var dirs []mesh.Direction
	if s.routes != nil {
		dirs = s.routes.get(srcIdx, dstIdx)
	}
	if dirs == nil {
		var err error
		dirs, err = s.routeChannel(src, dst)
		if err != nil {
			// A structured routing failure on the faulty mesh (blocked
			// path, partition): abort the run cleanly.
			s.fail(err)
			return
		}
		end, err := s.cfg.Grid.Walk(src, dirs)
		if err != nil {
			panic(err) // a policy that walks off the mesh is a policy bug
		}
		if end != dst {
			panic(fmt.Sprintf("netsim: policy %q routed %v to %v, want %v",
				s.policy.Name(), src, end, dst))
		}
		if s.routes != nil {
			s.routes.put(srcIdx, dstIdx, dirs)
		}
	}

	ch := s.newChannel()
	ch.src, ch.dst, ch.srcTile, ch.dirs = src, dst, srcIdx, dirs
	ch.start = s.engine.Now()
	ch.done, ch.arg = done, arg
	if s.faults != nil {
		ch.budget = dropBudgetPerBatch * uint64(s.numBatches)
	}
	for b := 0; b < s.numBatches; b++ {
		ch.startBatch()
	}
}

// routeChannel resolves one channel's hop path under the run's fault
// model.  A fault-aware policy routes on the live topology (and may
// return a structured *fault.UnreachableError on a partitioned pair);
// any other policy keeps its fault-oblivious path, which is then
// validated link by link — a path crossing a dead link is a structured
// *fault.RouteBlockedError, never a silent teleport across a hole.
func (s *simulator) routeChannel(src, dst mesh.Coord) ([]mesh.Direction, error) {
	if fa, ok := s.policy.(route.FaultAware); ok && s.faults != nil {
		return fa.RouteFaulty(s.cfg.Grid, src, dst, s.faults, loads{s})
	}
	dirs, err := s.policy.Route(s.cfg.Grid, src, dst, loads{s})
	if err != nil {
		panic(err) // placements are validated against the grid
	}
	if s.faults != nil && s.faults.HasDeadLinks() {
		cur := src
		for _, d := range dirs {
			if s.faults.Dead(cur, d) {
				return nil, &fault.RouteBlockedError{Src: src, Dst: dst, At: cur, Policy: s.policy.Name()}
			}
			cur = cur.Step(d)
		}
	}
	return dirs, nil
}

// channelRun is the reusable record of one channel: its endpoints and
// path, its in-flight batches' outputs and resend budget, and the
// continuation its delivery runs.  Records cycle through the
// simulator's free list like batch records: one is taken when the
// channel is set up and returned when its data has arrived, once every
// batch record that pointed to it is back on its own list.
type channelRun struct {
	sim      *simulator
	src, dst mesh.Coord
	srcTile  int // the index of src
	// dirs is the channel's setup-time path from src, shared read-only
	// by every batch that flies it; resent batches of an adaptive policy
	// may fly a fresher path (see resend).
	dirs    []mesh.Direction
	outputs int
	// start is the setup time, from which the channel's latency runs,
	// and done(arg) the continuation its delivery runs.
	start time.Duration
	done  func(any)
	arg   any
	// attempts counts batch transmissions (initial sends plus drop and
	// purification resends); budget caps them on a faulty mesh (0 = no
	// cap, the healthy-mesh behavior).
	attempts uint64
	budget   uint64
	next     *channelRun // free-list link
}

// newChannel takes a channel record off the free list, minting one only
// when the list is empty.
func (s *simulator) newChannel() *channelRun {
	ch := s.freeChannels
	if ch == nil {
		s.channelRecords++
		ch = &channelRun{sim: s}
	} else {
		s.freeChannels = ch.next
		ch.next = nil
	}
	return ch
}

// freeChannel returns a delivered channel's record to the free list,
// cleared, so it keeps no path or continuation alive.
func (s *simulator) freeChannel(ch *channelRun) {
	*ch = channelRun{sim: s, next: s.freeChannels}
	s.freeChannels = ch
}

// batch is the reusable record of one batch in flight.  It is the
// argument of every stage of the hop/arrive pipeline — package-level
// func(any) continuations run through sim's call forms — so moving a
// batch captures no closure.  A batch waits in one queue at a time
// (storage, generator, teleporter, then each endpoint purifier), so it
// queues on the one waiter node it embeds, and waiting allocates
// nothing either.  A record is taken from the simulator's free list
// when the batch is first sent, kept across its resends and returned
// once the batch outputs its purified pair (or is abandoned by an
// aborted run).
//
// The path a batch flies (dirs, from the channel source) is immutable
// once built, so a path is never mutated while any batch references it.
// Initial batches fly the channel's setup-time path; only
// adaptive-policy resends fly a fresh one.  The batch carries the index
// of the tile it is at and moves it along the port of each hop, so a
// path needs no stored tile sequence and a hop no mesh arithmetic.
type batch struct {
	ch   *channelRun
	dirs []mesh.Direction
	// tile is the index of the batch's current tile: the sending end of
	// hop while the hop is in flight, the destination once the batch has
	// arrived.
	tile int
	// hop is the hop in flight, from tile in direction dirs[hop], and
	// port the units it takes.
	hop  int
	port *port
	// held is the storage slot the batch occupies: none at the channel
	// source, then the receiving tile's slot of the last hop it crossed,
	// until it drains into its purifiers or is dropped.
	held *sim.Semaphore
	// lo and hi are the tile indices of the endpoint purifiers, in the
	// canonical acquisition order.
	lo, hi int
	// unit is the generator or teleporter unit the batch holds while
	// that stage serves it, and q the teleport stage's queue, with or
	// without the turn penalty.  A stage takes its unit with TakeOn,
	// schedules its completion on its queue and releases the unit when
	// that runs, so serving a batch needs no bookkeeping record besides
	// the batch's own.
	unit *sim.Resource
	q    sim.Queue
	// wait is the node the batch queues on at every stage.
	wait sim.Waiter
	next *batch // free-list link
}

// newBatch takes a batch record off the free list, minting one only
// when the list is empty.
func (s *simulator) newBatch(ch *channelRun) *batch {
	b := s.freeBatches
	if b == nil {
		s.batchRecords++
		b = &batch{}
	} else {
		s.freeBatches = b.next
	}
	b.ch = ch
	return b
}

// freeBatch returns a finished batch's record to the free list, dropping
// its references so it keeps no channel or path alive.
func (s *simulator) freeBatch(b *batch) {
	*b = batch{next: s.freeBatches}
	s.freeBatches = b
}

// port is the hop out of one tile in one direction, resolved once in
// build: the canonical index of the link it crosses and that link's G
// node, the sending tile's teleporter set for the hop's axis, and the
// incoming-storage credits and index of the receiving tile.  A
// direction that leaves the mesh has the zero port.
type port struct {
	link    int
	gen     *sim.Resource
	tele    *sim.Resource
	storage *sim.Semaphore
	to      int
}

// startBatch sends one of the channel's initial batches along its
// setup-time path.
func (ch *channelRun) startBatch() {
	if ch.sim.err != nil || !ch.admit() {
		return
	}
	ch.sim.newBatch(ch).fly(ch.dirs)
}

// admit counts one batch transmission against the resend budget,
// failing the run with a structured error once a faulty mesh exhausts
// it.
func (ch *channelRun) admit() bool {
	ch.attempts++
	if ch.budget > 0 && ch.attempts > ch.budget {
		ch.sim.fail(&fault.ExcessiveLossError{
			Src:      ch.src,
			Dst:      ch.dst,
			Attempts: ch.attempts - 1,
		})
		return false
	}
	return true
}

// resend re-sends batch b as a replacement after a drop or a
// purification failure.  This is where the stale-load fix lives: an
// adaptive policy (one without a route cache) re-routes the replacement
// with the routers' *current* loads — the congestion that built up since
// channel setup, read through the same counters the tracer samples —
// instead of replaying a path chosen from a snapshot that may be long
// stale.  Deterministic policies re-fly the cached path unchanged, and
// healthy deterministic runs never resend at all, so their results stay
// byte-identical to the pre-fix simulator.  If re-routing fails (e.g. a
// transiently blocked faulty path), the batch falls back to the
// channel's validated setup-time path.
func (ch *channelRun) resend(b *batch) {
	s := ch.sim
	if s.err != nil || !ch.admit() {
		s.freeBatch(b)
		return
	}
	dirs := ch.dirs
	if s.routes == nil {
		if d := ch.reroute(); d != nil {
			dirs = d
		}
	}
	if t := s.cfg.Trace; t != nil {
		t.RecordResend(s.engine.Now(), s.ports[4*ch.srcTile+int(dirs[0])].link)
	}
	b.fly(dirs)
}

// reroute resolves a fresh path for a replacement batch under the live
// loads, or nil to keep the setup-time path.  All shipped adaptive
// policies are minimal, so the fresh path's hop count (and with it the
// batch's purification and delivery latencies) matches the original.
func (ch *channelRun) reroute() []mesh.Direction {
	s := ch.sim
	dirs, err := s.routeChannel(ch.src, ch.dst)
	if err != nil {
		return nil
	}
	if end, err := s.cfg.Grid.Walk(ch.src, dirs); err != nil || end != ch.dst {
		return nil
	}
	return dirs
}

// fly sends the batch along a path from the channel source.
func (b *batch) fly(dirs []mesh.Direction) {
	b.dirs, b.tile, b.hop, b.held = dirs, b.ch.srcTile, 0, nil
	b.startHop()
}

// startHop advances the batch from its tile toward the next tile of its
// path: it first needs a storage credit at the receiving T' node.  Each
// stage runs its continuation inline when its TakeOn finds a unit free.
func (b *batch) startHop() {
	b.port = &b.ch.sim.ports[4*b.tile+int(b.dirs[b.hop])]
	if b.port.storage.TakeOn(&b.wait, hopStored, b) {
		hopStored(b)
	}
}

// hopStored runs once the batch holds its storage credit: it takes a
// generator unit of the G node of the crossed link.
func hopStored(a any) {
	b := a.(*batch)
	b.unit = b.port.gen
	if b.unit.TakeOn(&b.wait, generate, b) {
		generate(b)
	}
}

// generate runs once the batch holds a generator unit: the link pairs
// are ready after the G node's service time.
func generate(a any) {
	b := a.(*batch)
	s := b.ch.sim
	s.engine.ScheduleOn(s.genQ, hopGenerated, b)
}

// hopGenerated runs once the link pairs exist: the batch frees its
// generator unit and takes a teleporter from the sending node's
// directional set, plus a turn penalty when the route changes axis at
// this node.
func hopGenerated(a any) {
	b := a.(*batch)
	s := b.ch.sim
	b.unit.Release()
	b.q = s.teleportQ
	if i := b.hop; i > 0 && b.dirs[i-1].Axis() != b.dirs[i].Axis() {
		s.nodes[b.tile].turns++
		s.turns++
		b.q = s.turnQ
	}
	b.unit = b.port.tele
	if b.unit.TakeOn(&b.wait, teleport, b) {
		teleport(b)
	}
}

// teleport runs once the batch holds a teleporter unit: the batch
// crosses the link after the stage's service time.
func teleport(a any) {
	b := a.(*batch)
	b.ch.sim.engine.ScheduleOn(b.q, hopTeleported, b)
}

// hopTeleported runs once the batch has crossed the link, freeing its
// teleporter unit.
func hopTeleported(a any) {
	b := a.(*batch)
	ch := b.ch
	s := ch.sim
	b.unit.Release()
	s.pairHops += uint64(s.batchPairs)
	// The batch now occupies storage at the next tile; it frees its slot
	// at the tile it left (held since the prior hop), then steps there.
	if b.held != nil {
		b.held.Release()
	}
	p := b.port
	b.held, b.tile = p.storage, p.to
	if ch.droppedOn(p.link) {
		// The fault model dropped the batch on this link: it frees the
		// slot it just occupied and a replacement is sent from the
		// channel source (budget permitting).
		b.held.Release()
		s.droppedBatches++
		if t := s.cfg.Trace; t != nil {
			t.RecordDrop(s.engine.Now(), p.link)
		}
		ch.resend(b)
		return
	}
	if b.hop+1 < len(b.dirs) {
		b.hop++
		b.startHop()
	} else {
		b.arrive()
	}
}

// droppedOn draws the fault model's Bernoulli for a batch crossing the
// link with the given canonical index.  On a healthy mesh — or a live
// link with zero drop rate — it never consults the RNG, keeping the
// draw stream of drop-free runs byte-identical to the pre-fault-layer
// simulator.
func (ch *channelRun) droppedOn(li int) bool {
	s := ch.sim
	if s.faults == nil {
		return false
	}
	rate := s.faults.DropByIndex(li)
	return rate > 0 && s.rng.Float64() < rate
}

// arrive runs the endpoint stages for one batch: correction, then
// synchronized queue purification at both endpoint P nodes.
func (b *batch) arrive() {
	s := b.ch.sim
	// Queue purification holds one purifier unit at each endpoint (the
	// channel source and the tile the batch arrived at), acquired in
	// canonical index order to prevent circular wait.
	b.lo, b.hi = b.ch.srcTile, b.tile
	if b.lo > b.hi {
		b.lo, b.hi = b.hi, b.lo
	}
	s.engine.ScheduleOn(s.correctQ, arriveCorrected, b)
}

// arriveCorrected queues the corrected batch for its first endpoint
// purifier.
func arriveCorrected(a any) {
	b := a.(*batch)
	if b.ch.sim.purify[b.lo].TakeOn(&b.wait, purifyLoHeld, b) {
		purifyLoHeld(b)
	}
}

// purifyLoHeld queues the batch for its second endpoint purifier.
func purifyLoHeld(a any) {
	b := a.(*batch)
	if b.ch.sim.purify[b.hi].TakeOn(&b.wait, purify, b) {
		purify(b)
	}
}

// purify runs once both endpoint purifiers are held: the batch drains
// into them, freeing its arrival storage slot.
func purify(a any) {
	b := a.(*batch)
	s := b.ch.sim
	b.held.Release()
	s.purifyMsgs += uint64(s.batchPairs - 1) // tree of 2^d leaves has 2^d - 1 purifications
	s.engine.ScheduleOn(s.queuesFor(len(b.dirs)).purify, purified, b)
}

// purified frees both endpoint purifiers and outputs the batch's pair,
// or resends a batch whose purification failed: the subtree is lost and
// a replacement goes through the network (Figure 14's natural rebuild).
func purified(a any) {
	b := a.(*batch)
	ch := b.ch
	s := ch.sim
	s.purify[b.hi].Release()
	s.purify[b.lo].Release()
	if s.cfg.PurifyFailureRate > 0 && s.rng.Float64() < s.cfg.PurifyFailureRate {
		s.failedBatches++
		ch.resend(b)
		return
	}
	s.freeBatch(b)
	ch.output()
}

// output counts a purified pair; when all batches have produced theirs,
// the data teleport fires.  Every batch record outputs once, resends
// included, so the last output is the numBatches-th.
func (ch *channelRun) output() {
	s := ch.sim
	ch.outputs++
	if ch.outputs < s.numBatches {
		return
	}
	// The data teleport over the setup-time path: its length sets the
	// delivery latency (minimal-policy resends fly paths of the same
	// length).
	s.engine.ScheduleOn(s.queuesFor(len(ch.dirs)).deliver, delivered, ch)
}

// delivered runs once the logical qubit has crossed the channel: it
// records the channel's latency, returns the record to the free list
// and runs the channel's continuation.
func delivered(a any) {
	ch := a.(*channelRun)
	s := ch.sim
	s.latencies.Add(float64(s.engine.Now() - ch.start))
	done, arg := ch.done, ch.arg
	s.freeChannel(ch)
	done(arg)
}

// pathQueues are the engine queues of the two stages whose delay
// depends on a path's hop count.
type pathQueues struct {
	// purify is a batch's queue-purifier makespan: the bottom level
	// performs 2^(depth-1) sequential purifications and the remaining
	// levels add a pipeline-drain tail of depth-1 rounds; each round
	// exchanges classical bits across the channel (Eq 6).
	purify sim.Queue
	// deliver is the data teleport: all physical qubits of the logical
	// qubit teleport in parallel, each consuming one delivered pair, so
	// it takes one teleport plus the classical correction bits' trip
	// along the path (the channel-level delivery metric).
	deliver sim.Queue
}

// queuesFor returns the queues of a path of the given hop count,
// resolving them on the first use of that length.
func (s *simulator) queuesFor(hops int) *pathQueues {
	if hops >= len(s.paths) {
		s.paths = append(s.paths, make([]pathQueues, hops+1-len(s.paths))...)
	}
	q := &s.paths[hops]
	if q.purify == (sim.Queue{}) {
		depth := s.cfg.PurifyDepth
		rounds := 1<<uint(depth-1) + depth - 1
		cells := hops * s.cfg.HopCells
		q.purify = s.engine.Queue(s.cfg.Params.PurifyRoundTime(cells) * time.Duration(rounds))
		q.deliver = s.engine.Queue(s.cfg.Params.TeleportTime(cells) + time.Duration(cells)*s.cfg.Params.Times.ClassicalBitPerCell)
	}
	return q
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// result assembles the Result from the simulator's counters.
func (s *simulator) result(prog workload.Program) Result {
	res := Result{
		Exec:           s.engine.Now(),
		Ops:            len(prog.Ops),
		Channels:       s.channels,
		LocalOps:       s.localOps,
		PairsDelivered: s.channels * uint64(s.numBatches*s.batchPairs),
		PairHops:       s.pairHops,
		Turns:          s.turns,
		Events:         s.engine.Processed(),
	}
	res.ClassicalMessages = s.pairHops + s.purifyMsgs
	res.FailedBatches = s.failedBatches
	res.DroppedBatches = s.droppedBatches
	if s.faults != nil {
		res.DeadLinks = s.faults.DeadCount()
	}
	if s.latencies.Count() > 0 {
		res.MeanChannelLatency = time.Duration(s.latencies.Mean())
		res.MaxChannelLatency = time.Duration(s.latencies.Max())
	}
	var tu float64
	for i := range s.nodes {
		tu += s.nodes[i].utilization()
	}
	res.TeleporterUtil = tu / float64(len(s.nodes))
	var gu float64
	for _, g := range s.gnodes {
		gu += g.Utilization()
	}
	if len(s.gnodes) > 0 {
		res.GeneratorUtil = gu / float64(len(s.gnodes))
	}
	var pu float64
	for _, p := range s.purify {
		pu += p.Utilization()
	}
	res.PurifierUtil = pu / float64(len(s.purify))
	return res
}

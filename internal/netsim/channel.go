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

// channel sets up a quantum channel from src to dst and teleports a
// logical qubit across it, calling done when the data has arrived.
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
func (s *simulator) channel(src, dst mesh.Coord, done func()) {
	if s.err != nil {
		return // aborted run: issue nothing more, let the engine drain
	}
	if src == dst {
		s.localOps++
		done()
		return
	}
	s.channels++
	start := s.engine.Now()

	// The routing policy decides the hop path at setup time; adaptive
	// policies see the routers' live loads through the loads adapter.
	// Deterministic policies answer repeated (src, dst) pairs from the
	// per-run route cache, skipping the policy call, the Follow
	// validation walk and both slice allocations.  (The cache is scoped
	// to one run, hence to one materialized fault pattern, so caching
	// fault-aware routes is sound.)
	srcIdx, dstIdx := s.cfg.Grid.Index(src), s.cfg.Grid.Index(dst)
	var dirs []mesh.Direction
	var tiles []mesh.Coord
	if s.routes != nil {
		dirs, tiles = s.routes.get(srcIdx, dstIdx)
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
		tiles, err = s.cfg.Grid.Follow(src, dirs)
		if err != nil {
			panic(err) // a policy that walks off the mesh is a policy bug
		}
		if tiles[len(tiles)-1] != dst {
			panic(fmt.Sprintf("netsim: policy %q routed %v to %v, want %v",
				s.policy.Name(), src, tiles[len(tiles)-1], dst))
		}
		if s.routes != nil {
			s.routes.put(srcIdx, dstIdx, dirs, tiles)
		}
	}

	ch := &channelRun{
		sim:   s,
		src:   src,
		dst:   dst,
		dirs:  dirs,
		tiles: tiles,
		done: func() {
			s.latencies.Add(float64(s.engine.Now() - start))
			done()
		},
	}
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

// channelRun tracks one channel's in-flight batches.
type channelRun struct {
	sim      *simulator
	src, dst mesh.Coord
	// dirs and tiles are the channel's setup-time path, shared read-only
	// by every batch that flies it; resent batches of an adaptive policy
	// may fly a fresher path (see resend).
	dirs    []mesh.Direction
	tiles   []mesh.Coord
	outputs int
	done    func()
	// attempts counts batch transmissions (initial sends plus drop and
	// purification resends); budget caps them on a faulty mesh (0 = no
	// cap, the healthy-mesh behavior).
	attempts uint64
	budget   uint64
	finished bool
}

// batch is the reusable record of one batch in flight.  It is the
// argument of every stage of the hop/arrive pipeline — package-level
// func(any) continuations run through sim's call forms — so moving a
// batch captures no closure.  A record is taken from the simulator's
// free list when the batch is first sent, kept across its resends and
// returned once the batch outputs its purified pair (or is abandoned by
// an aborted run).
//
// The path a batch flies (dirs, tiles) is immutable once built:
// in-flight batches release storage by indexing their own path, so a
// path is never mutated while any batch references it.  Initial batches
// fly the channel's setup-time path; only adaptive-policy resends fly a
// fresh one.
type batch struct {
	ch    *channelRun
	dirs  []mesh.Direction
	tiles []mesh.Coord
	// hop is the hop in flight, from tiles[hop] to tiles[hop+1]; link is
	// the canonical index of the mesh link it crosses.
	hop, link int
	// lo and hi are the tile indices of the endpoint purifiers, in the
	// canonical acquisition order.
	lo, hi int
	next   *batch // free-list link
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
// its references so a finished channel can be collected.
func (s *simulator) freeBatch(b *batch) {
	*b = batch{next: s.freeBatches}
	s.freeBatches = b
}

// storage returns the incoming-storage credits at tile for a batch that
// travelled in direction dir: it arrives from the opposite direction.
func (s *simulator) storage(tile mesh.Coord, dir mesh.Direction) *sim.Semaphore {
	return s.nodes[s.cfg.Grid.Index(tile)].Storage(dir.Opposite())
}

// startBatch sends one of the channel's initial batches along its
// setup-time path.
func (ch *channelRun) startBatch() {
	if ch.sim.err != nil || !ch.admit() {
		return
	}
	ch.sim.newBatch(ch).fly(ch.dirs, ch.tiles)
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
	dirs, tiles := ch.dirs, ch.tiles
	if s.routes == nil {
		if d, t := ch.reroute(); d != nil {
			dirs, tiles = d, t
		}
	}
	if t := s.cfg.Trace; t != nil {
		li := s.cfg.Grid.LinkIndex(s.cfg.Grid.LinkFrom(tiles[0], dirs[0]))
		t.RecordResend(s.engine.Now(), li)
	}
	b.fly(dirs, tiles)
}

// reroute resolves a fresh path for a replacement batch under the live
// loads, or nil to keep the setup-time path.  All shipped adaptive
// policies are minimal, so the fresh path's hop count (and with it the
// batch's purification and delivery latencies) matches the original.
func (ch *channelRun) reroute() ([]mesh.Direction, []mesh.Coord) {
	s := ch.sim
	dirs, err := s.routeChannel(ch.src, ch.dst)
	if err != nil {
		return nil, nil
	}
	tiles, err := s.cfg.Grid.Follow(ch.src, dirs)
	if err != nil || tiles[len(tiles)-1] != ch.dst {
		return nil, nil
	}
	return dirs, tiles
}

// fly sends the batch along a path from its first hop.
func (b *batch) fly(dirs []mesh.Direction, tiles []mesh.Coord) {
	b.dirs, b.tiles, b.hop = dirs, tiles, 0
	b.startHop()
}

// startHop advances the batch from tiles[hop] toward tiles[hop+1]: it
// first needs a storage credit at the receiving T' node.
func (b *batch) startHop() {
	s := b.ch.sim
	s.storage(b.tiles[b.hop+1], b.dirs[b.hop]).AcquireCall(hopStored, b)
}

// hopStored runs once the batch holds its storage credit: it takes link
// pairs from the G node of the crossed link, a dense-slice lookup via
// the canonical link index.
func hopStored(a any) {
	b := a.(*batch)
	s := b.ch.sim
	b.link = s.cfg.Grid.LinkIndex(s.cfg.Grid.LinkFrom(b.tiles[b.hop], b.dirs[b.hop]))
	s.gnodes[b.link].ServeCall(s.genLatency, hopGenerated, b)
}

// hopGenerated runs once the link pairs exist: the batch takes a
// teleporter from the sending node's directional set, plus a turn
// penalty when the route changes axis at this node.
func hopGenerated(a any) {
	b := a.(*batch)
	s := b.ch.sim
	i, dir := b.hop, b.dirs[b.hop]
	node := s.nodes[s.cfg.Grid.Index(b.tiles[i])]
	latency := s.teleportLatency
	if i > 0 && b.dirs[i-1].Axis() != dir.Axis() {
		latency += node.TurnPenalty()
		s.turns++
	}
	node.TeleporterSet(dir.Axis()).ServeCall(latency, hopTeleported, b)
}

// hopTeleported runs once the batch has crossed the link.
func hopTeleported(a any) {
	b := a.(*batch)
	ch := b.ch
	s := ch.sim
	i := b.hop
	s.pairHops += uint64(s.batchPairs)
	s.net.RecordTeleports(s.batchPairs)
	// The batch now occupies storage at tiles[i+1]; it frees its slot at
	// the previous tile (held since the prior hop).
	if i > 0 {
		s.storage(b.tiles[i], b.dirs[i-1]).Release()
	}
	if ch.droppedOn(b.link) {
		// The fault model dropped the batch on this link: it frees the
		// slot it just occupied and a replacement is sent from the
		// channel source (budget permitting).
		s.storage(b.tiles[i+1], b.dirs[i]).Release()
		s.droppedBatches++
		if t := s.cfg.Trace; t != nil {
			t.RecordDrop(s.engine.Now(), b.link)
		}
		ch.resend(b)
		return
	}
	if i+1 < len(b.dirs) {
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
	// Queue purification holds one purifier unit at each endpoint,
	// acquired in canonical index order to prevent circular wait.
	b.lo, b.hi = s.cfg.Grid.Index(b.tiles[0]), s.cfg.Grid.Index(b.tiles[len(b.tiles)-1])
	if b.lo > b.hi {
		b.lo, b.hi = b.hi, b.lo
	}
	// Corrector: the accumulated Pauli frame costs at most two
	// single-qubit gates, applied to each pair of the batch in parallel.
	s.engine.ScheduleCall(2*s.cfg.Params.Times.OneQubitGate, arriveCorrected, b)
}

// arriveCorrected queues the corrected batch for its first endpoint
// purifier.
func arriveCorrected(a any) {
	b := a.(*batch)
	b.ch.sim.purify[b.lo].AcquireCall(purifyLoHeld, b)
}

// purifyLoHeld queues the batch for its second endpoint purifier.
func purifyLoHeld(a any) {
	b := a.(*batch)
	b.ch.sim.purify[b.hi].AcquireCall(purify, b)
}

// purify runs once both endpoint purifiers are held: the batch drains
// into them, freeing its arrival storage slot.
func purify(a any) {
	b := a.(*batch)
	s := b.ch.sim
	last := len(b.dirs) - 1
	s.storage(b.tiles[last+1], b.dirs[last]).Release()
	latency := s.purifyBatchLatency(len(b.dirs))
	s.net.RecordPurifies(s.batchPairs - 1) // tree of 2^d leaves has 2^d - 1 purifications
	s.engine.ScheduleCall(latency, purified, b)
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
// the data teleport fires.
func (ch *channelRun) output() {
	s := ch.sim
	ch.outputs++
	if ch.outputs < s.numBatches || ch.finished {
		return
	}
	ch.finished = true
	// All physical qubits of the logical qubit teleport in parallel,
	// each consuming one delivered pair; the latency is one teleport
	// plus the classical correction round trip over the setup-time path
	// (the channel-level delivery metric; minimal-policy resends fly
	// paths of the same length).
	latency := s.cfg.Params.TeleportTime(len(ch.dirs)*s.cfg.HopCells) +
		s.net.Latency(len(ch.dirs))
	s.engine.Schedule(latency, ch.done)
}

// purifyBatchLatency is the queue-purifier makespan for one batch: the
// bottom level performs 2^(depth-1) sequential purifications and the
// remaining levels add a pipeline-drain tail of depth-1 rounds; each
// round exchanges classical bits across the channel (Eq 6).
func (s *simulator) purifyBatchLatency(hops int) time.Duration {
	depth := s.cfg.PurifyDepth
	rounds := 1<<uint(depth-1) + depth - 1
	per := s.cfg.Params.PurifyRoundTime(hops * s.cfg.HopCells)
	return per * time.Duration(rounds)
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
	msgs, _, _, _ := s.net.Stats()
	res.ClassicalMessages = msgs
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
	for _, n := range s.nodes {
		tu += n.Utilization()
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

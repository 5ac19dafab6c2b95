// The coordinator half of the distributed sweep service: shard
// planning, merging the shards the shared store already holds without
// dispatching them, dispatch of the rest, capped-exponential retry,
// circuit-breaker quarantine, dead-worker reassignment, and the merge
// back into the single-process []simulate.SweepPoint contract.

package distrib

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"repro/qnet"
	"repro/qnet/simulate"
)

// ErrAttemptsExhausted marks a sweep failure caused by a shard
// exhausting its dispatch attempts (WithMaxAttempts).  It is wrapped
// into the error Sweep returns, so front-ends can errors.Is-match the
// exhausted-retries outcome distinctly from configuration errors and
// cancellation.
var ErrAttemptsExhausted = errors.New("distrib: shard attempts exhausted")

// Coordinator shards a sweep space across a fleet of workers and
// merges their streamed results.  Build one with NewCoordinator and
// run sweeps with Sweep; a Coordinator is safe for sequential reuse
// (one Sweep at a time).
type Coordinator struct {
	transport Transport
	workers   []string
	shards    int
	attempts  int
	backoff   time.Duration
	heartbeat time.Duration
	store     simulate.Store
	storeURL  string
	logf      func(format string, args ...any)
	progress  func(worker string, st Status)
}

// Failure handling scales with the retry backoff base
// (WithRetryBackoff): the retry delay's ceiling and the circuit
// breaker's cooldown are multiples of the base, and the breaker trips
// after a fixed run of consecutive failed dispatches.  At the 50ms
// default base they are 2s, 1s and 3.
const (
	retryCapFactor  = 40
	cooldownFactor  = 20
	breakerFailures = 3
)

// deadAfterMisses consecutive unanswered Status probes declare a worker
// dead.  One is not proof: a single flapped probe must not kill a
// healthy worker.
const deadAfterMisses = 2

// CoordinatorOption configures a Coordinator.
type CoordinatorOption func(*Coordinator)

// WithShards sets how many shards the space is partitioned into.  The
// default is four per worker: small enough to amortize dispatch,
// large enough that losing a worker mid-shard forfeits little work.
// With a shared store (WithSharedStore) the shards partition the
// space's distinct keys, so the points of one key never split across
// shards.
func WithShards(n int) CoordinatorOption {
	return func(c *Coordinator) { c.shards = n }
}

// WithMaxAttempts caps how many times one shard may be dispatched
// before the sweep fails (first attempt included).  The default is
// the worker count plus two, so a shard survives every worker dying
// once plus scheduling bad luck.
func WithMaxAttempts(n int) CoordinatorOption {
	return func(c *Coordinator) { c.attempts = n }
}

// WithRetryBackoff sets the base delay before a failed shard is
// re-enqueued (default 50ms), and with it the timescale of retries and
// quarantine.  The delay doubles with each failed attempt up to 40× the
// base, with deterministic jitter in [delay/2, delay] so synchronized
// failures desynchronize their retries.  A worker that fails 3
// dispatches in a row is quarantined by a circuit breaker: it receives
// no new work for a cooldown of 20× the base, then re-enters on
// probation — one further failure re-quarantines it immediately, one
// success restores it fully.  Quarantine is for workers that keep
// answering but keep failing (version skew, a bad disk, a flaky link);
// dead workers are caught by the Status probes instead.
func WithRetryBackoff(d time.Duration) CoordinatorOption {
	return func(c *Coordinator) { c.backoff = d }
}

// WithHeartbeat enables active liveness probing: every worker's Status
// is fetched at this period, and two consecutive unanswered probes
// (counting the probes that follow a failed dispatch) mark the worker
// dead and abort its in-flight shard, which then reassigns.  Each
// answered beat also feeds the WithProgress callback, so heartbeats
// double as live progress/telemetry probes.  Zero (the default) relies
// on in-band detection only — a dead worker is noticed when its result
// stream breaks.
func WithHeartbeat(d time.Duration) CoordinatorOption {
	return func(c *Coordinator) { c.heartbeat = d }
}

// WithProgress installs a per-worker progress callback, invoked with
// each successful heartbeat's Status snapshot — shard progress plus,
// for workers built with WithWorkerTelemetry, the live event rate and
// router occupancy of their in-flight runs.  It only fires while a
// heartbeat period is set (WithHeartbeat); the callback must be safe
// for concurrent calls, one goroutine per worker.
func WithProgress(f func(worker string, st Status)) CoordinatorOption {
	return func(c *Coordinator) { c.progress = f }
}

// WithSharedStore gives the coordinator the fleet's shared result
// store.  Before dispatching, Sweep merges every shard whose points
// the store already holds straight from it, so a re-run of a finished
// sweep, or of one a coordinator crash cut short, dispatches only the
// shards with a point missing (Report.ResumedShards counts the rest).
// A failed point is never stored, so its shard always dispatches.
// Merged fresh points are sanity-checked against the store (see
// Report.Mismatches), its stats land in the Report, and — when url is
// non-empty — every dispatched Job carries it as StoreURL so workers
// consult the same store remotely.  Pass url "" for transports whose
// workers already share the store in process (Loopback).
func WithSharedStore(st simulate.Store, url string) CoordinatorOption {
	return func(c *Coordinator) { c.store, c.storeURL = st, url }
}

// WithLogf installs a progress logger (default: silent).
func WithLogf(f func(format string, args ...any)) CoordinatorOption {
	return func(c *Coordinator) { c.logf = f }
}

// NewCoordinator builds a coordinator dispatching over the transport
// to the named workers (for HTTPTransport, their base URLs).
func NewCoordinator(t Transport, workers []string, opts ...CoordinatorOption) (*Coordinator, error) {
	if t == nil {
		return nil, &qnet.ConfigError{Field: "Transport", Value: "-", Reason: "transport must not be nil"}
	}
	if len(workers) == 0 {
		return nil, &qnet.ConfigError{Field: "Workers", Value: 0, Reason: "need at least one worker"}
	}
	c := &Coordinator{
		transport: t,
		workers:   workers,
		shards:    4 * len(workers),
		attempts:  len(workers) + 2,
		backoff:   50 * time.Millisecond,
		logf:      func(string, ...any) {},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Report is the operational outcome of one distributed sweep: how the
// work spread, what failed over, and how the shared store behaved.
type Report struct {
	// Points is the number of distinct run points merged.
	Points int
	// CacheHits is how many merged points were served from the shared
	// store rather than freshly simulated.
	CacheHits int
	// Shards is the number of planned shards.
	Shards int
	// ResumedShards counts shards merged from the shared store without
	// dispatch, because the store held every one of their points.
	ResumedShards int
	// Reassignments counts shard dispatches beyond each shard's first
	// (retries on any worker plus failovers to another).
	Reassignments int
	// DuplicatePoints counts points delivered more than once — the
	// overlap a reassigned shard re-delivers; duplicates are dropped
	// on merge (first result wins).
	DuplicatePoints int
	// Mismatches counts fresh results that disagreed with the shared
	// store's entry for the same key: nonzero means a worker diverged
	// (version skew or lost determinism).  Details lists the first few
	// as "index N: <metric deltas>".
	Mismatches int
	// MismatchDetails are the first mismatches' metric deltas.
	MismatchDetails []string
	// Quarantines counts circuit-breaker trips across the fleet (see
	// WithRetryBackoff): workers sidelined for a cooldown after
	// consecutive failed dispatches.
	Quarantines int
	// QuarantinesByWorker counts circuit-breaker trips per worker (nil
	// when the breaker never fired).
	QuarantinesByWorker map[string]int
	// DeadWorkers lists workers that were declared dead during the
	// sweep.
	DeadWorkers []string
	// DrainingWorkers lists workers that refused new work because they
	// were draining — healthy but unavailable, not dead.
	DrainingWorkers []string
	// ShardsByWorker counts completed shards per worker.
	ShardsByWorker map[string]int
	// Store is the shared store's counter snapshot after the sweep
	// (zero when no store was attached).
	Store simulate.CacheStats
}

// String renders the report compactly.
func (r *Report) String() string {
	out := fmt.Sprintf("%d points (%d store hits) over %d shards, %d reassignments, %d duplicates, %d mismatches",
		r.Points, r.CacheHits, r.Shards, r.Reassignments, r.DuplicatePoints, r.Mismatches)
	if r.ResumedShards > 0 {
		out += fmt.Sprintf(", %d served from the store", r.ResumedShards)
	}
	if r.Quarantines > 0 {
		out += fmt.Sprintf(", %d quarantines", r.Quarantines)
	}
	if len(r.DeadWorkers) > 0 {
		out += fmt.Sprintf(", dead workers %v", r.DeadWorkers)
	}
	if len(r.DrainingWorkers) > 0 {
		out += fmt.Sprintf(", draining workers %v", r.DrainingWorkers)
	}
	return out
}

// shardState is one shard's dispatch bookkeeping.  Only the goroutine
// holding the shard touches attempts.
type shardState struct {
	Shard
	attempts int
}

// retryDelay computes the re-enqueue delay for a shard's k-th failed
// attempt: base doubled per attempt, capped at retryCapFactor times
// the base, then jittered into [d/2, d] by a deterministic hash of the
// (shard, attempt) pair — no RNG, so retry timing is reproducible
// while synchronized failures still fan out.
func retryDelay(base time.Duration, shard, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	ceil := retryCapFactor * base
	d := base
	for i := 1; i < attempt && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	h := uint64(shard)*0x9e3779b97f4a7c15 + uint64(attempt)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 27
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + int64(h%uint64(half+1)))
}

// storedShard reads a shard's points from the shared store; ok is
// false at the first missing point, and the whole shard then
// dispatches.
func storedShard(store simulate.Store, keys []simulate.Key, indices []int) ([]PointResult, bool) {
	out := make([]PointResult, 0, len(indices))
	for _, idx := range indices {
		res, ok := store.Get(keys[idx])
		if !ok {
			return nil, false
		}
		out = append(out, PointResult{Index: idx, Result: res, Cached: true})
	}
	return out, true
}

// Sweep expands the spec, shards it across the fleet, and returns the
// merged points in expansion order — the same contract as
// simulate.Sweep over the same space — plus the operational Report.
// Per-point simulation failures are recorded in SweepPoint.Err exactly
// like the single-process engine; Sweep itself fails only when a shard
// exhausts its attempts (ErrAttemptsExhausted), every worker dies or
// drains with shards outstanding, or ctx is cancelled.  Every goroutine
// a Sweep starts has exited by the time it returns, so the Report is
// final.
func (c *Coordinator) Sweep(ctx context.Context, spec SpaceSpec) ([]simulate.SweepPoint, *Report, error) {
	pts, keys, err := c.expand(spec)
	if err != nil {
		return nil, nil, err
	}
	var plan []Shard
	if keys != nil {
		// Every point's key is known: keep each key's points in one
		// shard, so no key simulates on two workers.
		plan = planKeyShards(keys, c.shards)
	} else {
		plan = PlanShards(len(pts), c.shards)
	}
	r := newSweepRun(ctx, c, spec, keys, plan, len(pts))
	defer r.cancel()
	for _, w := range c.workers {
		r.dispatchers.Add(1)
		go r.dispatch(w)
		if c.heartbeat > 0 {
			r.background.Add(1)
			go r.heartbeat(w)
		}
	}
	// Dispatch ends once the last shard lands or the run fails.  Then
	// stop the heartbeats, probes and retry timers and join them, so
	// nothing touches the Report after it is returned.
	r.dispatchers.Wait()
	r.stopBackground()
	r.background.Wait()
	return r.result(pts)
}

// expand resolves the spec's run points and validates every point's
// machine through simulate.Space.Expand, as single-process Sweep does,
// so an invalid point fails the sweep before any dispatch.  With a
// store attached it also returns every point's content key; the keys
// plan the shards, find the shards the store already holds and drive
// the merge-time sanity check.
func (c *Coordinator) expand(spec SpaceSpec) ([]simulate.Point, []simulate.Key, error) {
	space, err := spec.Space()
	if err != nil {
		return nil, nil, err
	}
	indices := make([]int, space.Size())
	for i := range indices {
		indices[i] = i
	}
	pts, _, keys, err := space.Expand(indices, c.store, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, nil, err
	}
	if c.store == nil {
		keys = nil
	}
	return pts, keys, nil
}

// workerState is a worker's standing in one sweep.  States only
// advance: live, then draining, then dead.
type workerState int

const (
	workerLive     workerState = iota // takes new shards
	workerDraining                    // alive, but refuses new work
	workerDead                        // declared dead
)

// workerRec is one worker's record in a sweep.
type workerRec struct {
	state  workerState
	cancel context.CancelFunc // aborts the in-flight dispatch; nil when idle
	misses int                // consecutive unanswered Status probes
}

// sweepRun is the state of one Sweep, owned by its methods: the
// per-worker dispatch loops and heartbeats, retries, and the merge.
type sweepRun struct {
	c    *Coordinator
	spec SpaceSpec
	keys []simulate.Key // per-point store keys; nil without a store

	ctx            context.Context // cancelled when the run fails or the caller gives up
	cancel         context.CancelFunc
	bgCtx          context.Context // heartbeats, probes and retry timers: ctx, also cancelled once dispatch ends
	stopBackground context.CancelFunc
	pending        chan *shardState // sized to the shard count, so a send never blocks
	allDone        chan struct{}    // closed when the last shard completes
	dispatchers    sync.WaitGroup   // the per-worker dispatch loops
	background     sync.WaitGroup   // heartbeats and retry timers

	mu        sync.Mutex // guards everything below
	rep       *Report
	merged    []PointResult // by point index, valid where have is set
	have      []uint64      // bitset: which points are merged
	remaining int           // shards not yet complete
	workers   map[string]*workerRec
	failure   error // the first failure, which ended the run
}

// newSweepRun sets up a run over the planned shards.  A shard whose
// every point the shared store holds is merged straight from it; every
// other shard is queued for dispatch.
func newSweepRun(ctx context.Context, c *Coordinator, spec SpaceSpec, keys []simulate.Key, shards []Shard, points int) *sweepRun {
	r := &sweepRun{
		c: c, spec: spec, keys: keys,
		pending:   make(chan *shardState, len(shards)),
		allDone:   make(chan struct{}),
		rep:       &Report{Shards: len(shards), ShardsByWorker: make(map[string]int)},
		merged:    make([]PointResult, points),
		have:      make([]uint64, (points+63)/64),
		remaining: len(shards),
		workers:   make(map[string]*workerRec, len(c.workers)),
	}
	r.ctx, r.cancel = context.WithCancel(ctx)
	r.bgCtx, r.stopBackground = context.WithCancel(r.ctx)
	for _, w := range c.workers {
		r.workers[w] = &workerRec{}
	}
	for _, sh := range shards {
		if keys != nil {
			if prs, ok := storedShard(c.store, keys, sh.Indices); ok {
				for _, pr := range prs {
					_ = r.merge(pr) // plan indices are always in range
				}
				r.rep.ResumedShards++
				r.remaining--
				continue
			}
		}
		r.pending <- &shardState{Shard: sh}
	}
	if r.rep.ResumedShards > 0 {
		c.logf("distrib: %d of %d shards served from the store", r.rep.ResumedShards, len(shards))
	}
	if r.remaining == 0 {
		close(r.allDone)
	}
	return r
}

// dispatch is one worker's loop: take a shard, run it, settle the
// outcome, until the run ends or the worker can take no new work.
func (r *sweepRun) dispatch(worker string) {
	defer r.dispatchers.Done()
	failures := 0 // consecutive failed dispatches, for the circuit breaker
	for {
		sh := r.take(worker)
		if sh == nil {
			return
		}
		err := r.run(worker, sh)
		switch {
		case err == nil:
			failures = 0
			r.complete(worker)
		case r.ctx.Err() != nil:
			return
		case errors.Is(err, ErrWorkerDraining):
			// Not a failure: the worker refused new work.  Hand the
			// shard back with its attempt un-counted.
			if sh.attempts--; sh.attempts > 0 {
				r.mu.Lock()
				r.rep.Reassignments--
				r.mu.Unlock()
			}
			r.pending <- sh
			r.setState(worker, workerDraining)
			return
		default:
			// A broken stream usually means a dead worker: schedule the
			// retry, then ask the worker's Status, as the heartbeat does.
			if !r.retry(worker, sh, err) || r.confirm(worker) != workerLive {
				return
			}
			// Alive but failing: after breakerFailures in a row,
			// quarantine it, then let it back on probation, one failure
			// away from the next quarantine.
			if failures++; failures >= breakerFailures {
				if !r.quarantine(worker, failures) {
					return
				}
				failures = breakerFailures - 1
			}
		}
	}
}

// take waits for the next queued shard and claims it for the worker,
// counting every dispatch after a shard's first as a reassignment.  It
// returns nil once the run is over or the worker takes no new work.
func (r *sweepRun) take(worker string) *shardState {
	var sh *shardState
	select {
	case <-r.ctx.Done():
		return nil
	case <-r.allDone:
		return nil
	case sh = <-r.pending:
	}
	r.mu.Lock()
	live := r.workers[worker].state == workerLive
	if live && sh.attempts > 0 {
		r.rep.Reassignments++
	}
	r.mu.Unlock()
	if !live {
		r.pending <- sh // hand it back untaken
		return nil
	}
	sh.attempts++
	return sh
}

// run dispatches one shard to the worker.  The dispatch's cancel
// handle sits in the worker's record while it runs, so a heartbeat
// that declares the worker dead can abort it.
func (r *sweepRun) run(worker string, sh *shardState) error {
	ctx, cancel := context.WithCancel(r.ctx)
	defer cancel()
	rec := r.workers[worker]
	r.mu.Lock()
	rec.cancel = cancel
	r.mu.Unlock()
	job := Job{Space: r.spec, Indices: sh.Indices, StoreURL: r.c.storeURL}
	err := r.c.transport.Run(ctx, worker, job, r.merge)
	r.mu.Lock()
	rec.cancel = nil
	r.mu.Unlock()
	return err
}

// complete records a shard the worker finished, closing allDone when
// it was the last one outstanding.
func (r *sweepRun) complete(worker string) {
	r.mu.Lock()
	r.rep.ShardsByWorker[worker]++
	r.remaining--
	last := r.remaining == 0
	r.mu.Unlock()
	if last {
		close(r.allDone)
	}
}

// retry settles a failed dispatch: a shard out of attempts fails the
// run, any other re-enqueues after a capped exponential backoff.  It
// reports whether the run goes on.
func (r *sweepRun) retry(worker string, sh *shardState, err error) bool {
	r.c.logf("distrib: shard %d attempt %d on %s failed: %v", sh.ID, sh.attempts, worker, err)
	if sh.attempts >= r.c.attempts {
		r.fail(fmt.Errorf("%w: shard %d failed after %d attempts: %v",
			ErrAttemptsExhausted, sh.ID, sh.attempts, err))
		return false
	}
	r.background.Add(1)
	go r.requeue(sh, retryDelay(r.c.backoff, sh.ID, sh.attempts))
	return true
}

// requeue puts a failed shard back on the queue once its backoff delay
// has passed, unless the run's background work stops first.
func (r *sweepRun) requeue(sh *shardState, delay time.Duration) {
	defer r.background.Done()
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
		r.pending <- sh
	case <-r.bgCtx.Done():
	}
}

// quarantine sidelines a worker that answers probes but keeps failing
// dispatches for the breaker's cooldown.  It reports whether the run
// goes on.
func (r *sweepRun) quarantine(worker string, failures int) bool {
	r.mu.Lock()
	r.rep.Quarantines++
	if r.rep.QuarantinesByWorker == nil {
		r.rep.QuarantinesByWorker = make(map[string]int)
	}
	r.rep.QuarantinesByWorker[worker]++
	r.mu.Unlock()
	cooldown := cooldownFactor * r.c.backoff
	r.c.logf("distrib: worker %s quarantined after %d consecutive failures (cooldown %s)",
		worker, failures, cooldown)
	select {
	case <-time.After(cooldown):
		return true
	case <-r.ctx.Done():
	case <-r.allDone:
	}
	return false
}

// heartbeat probes the worker's Status every period until background
// work stops or the worker is declared dead.  One probe serves two
// purposes: liveness, through observe, and progress telemetry, since
// answered probes feed WithProgress.
func (r *sweepRun) heartbeat(worker string) {
	defer r.background.Done()
	t := time.NewTicker(r.c.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-r.bgCtx.Done():
			return
		case <-t.C:
		}
		st, err := r.c.transport.Status(r.bgCtx, worker)
		if r.observe(worker, st, err) == workerDead {
			return
		}
		if err == nil && r.c.progress != nil {
			r.c.progress(worker, st)
		}
	}
}

// confirm probes a worker whose dispatch just failed until it answers
// or observe declares it dead, and returns its state.
func (r *sweepRun) confirm(worker string) workerState {
	for {
		st, err := r.c.transport.Status(r.bgCtx, worker)
		state := r.observe(worker, st, err)
		if err == nil || state == workerDead {
			return state
		}
		select {
		case <-time.After(10 * time.Millisecond):
		case <-r.bgCtx.Done():
			return state
		}
	}
}

// observe is the one liveness transition, fed by heartbeats and by
// the checks after failed dispatches alike.  An answered Status probe
// clears the worker's misses, and marks it draining if the answer says
// so; an unanswered probe is a miss, and deadAfterMisses in a row
// declare it dead.  A probe that failed because the run's background
// work was stopped proves nothing and is ignored.  It returns the
// worker's state.
func (r *sweepRun) observe(worker string, st Status, err error) workerState {
	r.mu.Lock()
	rec := r.workers[worker]
	to := rec.state
	switch {
	case err == nil:
		rec.misses = 0
		if st.Draining {
			to = max(to, workerDraining)
		}
	case r.bgCtx.Err() != nil:
	default:
		if rec.misses++; rec.misses >= deadAfterMisses {
			to = workerDead
		}
	}
	r.mu.Unlock()
	return r.setState(worker, to)
}

// setState advances a worker to the given state, records the step in
// the Report, and returns the worker's state; a state never moves
// back.  Declaring a worker dead aborts its in-flight dispatch so the
// shard reassigns, and the run fails once no worker is left to take
// the outstanding shards.
func (r *sweepRun) setState(worker string, to workerState) workerState {
	r.mu.Lock()
	rec := r.workers[worker]
	if to <= rec.state {
		to = rec.state
		r.mu.Unlock()
		return to
	}
	rec.state = to
	what := "is draining; no new work dispatched to it"
	if to == workerDead {
		what = "declared dead"
		r.rep.DeadWorkers = append(r.rep.DeadWorkers, worker)
		if rec.cancel != nil {
			rec.cancel()
		}
	} else {
		r.rep.DrainingWorkers = append(r.rep.DrainingWorkers, worker)
	}
	stranded := r.remaining > 0
	for _, w := range r.workers {
		stranded = stranded && w.state != workerLive
	}
	r.mu.Unlock()
	r.c.logf("distrib: worker %s %s", worker, what)
	if stranded {
		r.fail(errors.New("distrib: every worker dead or draining with shards outstanding"))
	}
	return to
}

// fail ends the run with err; the first failure wins.
func (r *sweepRun) fail(err error) {
	r.mu.Lock()
	if r.failure == nil {
		r.failure = err
	}
	r.mu.Unlock()
	r.cancel()
}

// merge folds one streamed point in: overlap that a reassigned shard
// re-delivers is dropped (first result wins), and fresh results are
// sanity-checked against the shared store.
func (r *sweepRun) merge(pr PointResult) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := pr.Index
	if i < 0 || i >= len(r.merged) {
		return fmt.Errorf("distrib: streamed point index %d out of range", i)
	}
	word, bit := i/64, uint64(1)<<(i%64)
	if r.have[word]&bit != 0 {
		r.rep.DuplicatePoints++
		return nil
	}
	r.have[word] |= bit
	r.merged[i] = pr
	if pr.Cached {
		r.rep.CacheHits++
	}
	if r.keys != nil && !pr.Cached && pr.Err == "" {
		if prev, ok := r.c.store.Get(r.keys[i]); ok {
			if d := simulate.Diff(prev, pr.Result); !d.IsZero() {
				r.rep.Mismatches++
				if len(r.rep.MismatchDetails) < 8 {
					r.rep.MismatchDetails = append(r.rep.MismatchDetails, fmt.Sprintf("index %d: %s", i, d))
				}
			}
		}
	}
	return nil
}

// result builds Sweep's return values.  Every goroutine of the run has
// been joined by now, so the state is read without the lock.
func (r *sweepRun) result(pts []simulate.Point) ([]simulate.SweepPoint, *Report, error) {
	err := r.failure
	if err == nil {
		err = r.ctx.Err()
	}
	merged := 0
	for _, w := range r.have {
		merged += bits.OnesCount64(w)
	}
	if err == nil && merged != len(pts) {
		err = fmt.Errorf("distrib: merged %d of %d points", merged, len(pts))
	}
	if err != nil {
		return nil, r.rep, err
	}
	out := make([]simulate.SweepPoint, len(pts))
	for i, pt := range pts {
		pr := r.merged[i]
		out[i] = simulate.SweepPoint{Point: pt, Result: pr.Result, Cached: pr.Cached}
		if pr.Err != "" {
			out[i].Err = errors.New(pr.Err)
		}
	}
	r.rep.Points = len(out)
	if r.c.store != nil {
		r.rep.Store = r.c.store.Stats()
	}
	return out, r.rep, nil
}

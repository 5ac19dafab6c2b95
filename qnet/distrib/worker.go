// The worker half of the distributed sweep service: executes one
// shard of run points through simulate.Stream, consulting the fleet's
// shared result store, and streams finished points back.

package distrib

import (
	"context"
	"sync"
	"time"

	"repro/qnet/simulate"
	"repro/qnet/trace"
)

// Worker executes job shards through simulate.Stream.  A Worker
// carries no job state between shards and is safe for concurrent use;
// the HTTP Server and the Loopback transport both drive one through
// Execute.  Status exposes its live progress counters and — with
// WithWorkerTelemetry — the event-rate and occupancy telemetry of the
// runs in flight.
type Worker struct {
	store     simulate.Store
	parallel  int
	newRemote func(ctx context.Context, url string) simulate.Store
	telemetry bool
	traceIv   time.Duration

	mu     sync.Mutex
	active map[*trace.Tracer]struct{} // tracers of in-flight points (telemetry on)
	inRun  int                        // points simulating right now
	done   uint64                     // points finished since the worker started
}

// WorkerOption configures a Worker.
type WorkerOption func(*Worker)

// WithWorkerStore installs the worker's default result store,
// consulted (and written back) for every point of jobs that do not
// name a shared StoreURL of their own.
func WithWorkerStore(st simulate.Store) WorkerOption {
	return func(w *Worker) { w.store = st }
}

// WithWorkerParallelism sets how many points of one job the worker
// simulates concurrently.  Values below 1 (and the default) mean
// GOMAXPROCS.
func WithWorkerParallelism(n int) WorkerOption {
	return func(w *Worker) { w.parallel = n }
}

// WithWorkerTelemetry attaches a telemetry tracer (qnet/trace) to every
// point the worker simulates (a point its store serves gets none),
// starting at the given simulated-time sampling interval (non-positive
// selects the trace package default), which the tracer doubles
// whenever its series fills.  The live snapshots feed Worker.Status —
// and through it the /v1/status endpoint and the coordinator's
// WithProgress callback — with the in-flight runs' event rates and
// router occupancy.  Tracers are observers:
// results and cache keys are unchanged, so telemetry-on and
// telemetry-off workers may share one fleet store.
func WithWorkerTelemetry(interval time.Duration) WorkerOption {
	return func(w *Worker) { w.telemetry, w.traceIv = true, interval }
}

// NewWorker builds a worker with the given options over the defaults
// (no store, GOMAXPROCS-way parallelism, HTTP remote stores, no
// telemetry).
func NewWorker(opts ...WorkerOption) *Worker {
	w := &Worker{
		newRemote: func(ctx context.Context, url string) simulate.Store {
			return NewRemoteStore(url).WithContext(ctx)
		},
		active: make(map[*trace.Tracer]struct{}),
	}
	for _, opt := range opts {
		opt(w)
	}
	return w
}

// Status returns the worker's live telemetry snapshot.  It is cheap
// (one mutex and a read of each active run's latest sample) and safe to
// call at heartbeat frequency while shards execute.
func (w *Worker) Status() Status {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := Status{ActivePoints: w.inRun, DonePoints: w.done}
	for tr := range w.active {
		lv := tr.Live()
		st.Events += lv.Events
		if lv.At > 0 {
			st.EventRate += float64(lv.Events) / lv.At.Seconds()
		}
		st.Occupancy += lv.MeanOccupancy
	}
	if n := len(w.active); n > 0 {
		st.Occupancy /= float64(n)
	}
	return st
}

// storeFor resolves the store one job runs against: the job's shared
// StoreURL when set (bound to the job's context, so cancelling the
// job aborts its in-flight store traffic), else the worker's own.
func (w *Worker) storeFor(ctx context.Context, job Job) simulate.Store {
	if job.StoreURL != "" {
		return w.newRemote(ctx, job.StoreURL)
	}
	return w.store
}

// Execute runs every point of the job's shard through simulate.Stream
// and calls emit once per finished point, in completion order,
// serialized (emit is never called concurrently).  Points whose
// simulation fails are emitted with Err set and do not abort the
// shard, but a point whose run a cancellation cut short is not
// emitted.  Execute itself returns an error only for a malformed job
// (an invalid point included), a cancelled context, or an emit failure
// (a broken result stream), which stops the rest of the shard.  When a
// store is available — per-job via Job.StoreURL or worker-wide via
// WithWorkerStore — the shard's points that share a key simulate once,
// and every point is looked up before simulating and stored back
// after, so a reassigned shard re-hits the fleet's store for points
// its previous owner already finished.
func (w *Worker) Execute(ctx context.Context, job Job, emit func(PointResult) error) error {
	if err := job.Validate(); err != nil {
		return err
	}
	space, err := job.Space.Space()
	if err != nil {
		return err
	}
	// The first emit failure cancels the rest of the shard: nobody
	// reads its points any more.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	points, err := simulate.Stream(ctx, space, job.Indices, w.watch,
		simulate.WithStore(w.storeFor(ctx, job)), simulate.WithWorkers(w.parallel))
	if err != nil {
		return err
	}

	// Drain the stream even after a failed emit, so no point of the
	// shard is still running when Execute returns.
	var emitErr error
	emitted := 0
	for sp := range points {
		w.mu.Lock()
		w.done++
		w.mu.Unlock()
		if emitErr != nil {
			continue
		}
		pr := PointResult{Index: sp.Point.Index, Result: sp.Result, Cached: sp.Cached}
		if sp.Err != nil {
			pr.Err = sp.Err.Error()
		}
		if emitErr = emit(pr); emitErr != nil {
			cancel()
		} else {
			emitted++
		}
	}
	if emitErr != nil {
		return emitErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if emitted != len(job.Indices) {
		// The stream ended early without a context error: impossible
		// today, but a truncated shard must never read as a complete one.
		return context.Canceled
	}
	return nil
}

// watch is the hook simulate.Stream calls just before one of the
// worker's points simulates: it counts the point in ActivePoints until
// the run ends and, with telemetry on, returns a fresh tracer that
// Status reads while the run is in flight.
func (w *Worker) watch() (*trace.Tracer, func()) {
	var tr *trace.Tracer
	if w.telemetry {
		tr = trace.New(trace.Config{Interval: w.traceIv})
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.inRun++
	if tr != nil {
		w.active[tr] = struct{}{}
	}
	return tr, func() {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.inRun--
		delete(w.active, tr)
	}
}

// The in-process loopback transport: the whole distributed subsystem
// — sharding, dispatch, retry, reassignment, shared store — without a
// socket.  Tests and benchmarks use it to exercise coordinator logic
// deterministically, including injected worker death mid-shard.

package distrib

import (
	"context"
	"fmt"
	"sync"
)

// Loopback is an in-process Transport over named Workers.  Besides
// plain dispatch it supports fault injection: Kill marks a worker dead
// immediately, KillAfterPoints arms a death that triggers mid-shard
// after the worker has delivered a given number of points — the
// reassignment path's test hook.
type Loopback struct {
	mu      sync.Mutex
	workers map[string]*loopbackWorker
}

// loopbackWorker is one registered worker plus its fault state.
type loopbackWorker struct {
	worker    *Worker
	dead      bool
	draining  bool
	killAfter int // points until injected death; <0 = never
	emitted   int // points delivered across all jobs
	cancels   map[*context.CancelFunc]struct{}
}

// Loopback implements Transport.
var _ Transport = (*Loopback)(nil)

// NewLoopback builds an empty loopback transport.
func NewLoopback() *Loopback {
	return &Loopback{workers: make(map[string]*loopbackWorker)}
}

// Add registers a worker under a name (the "address" coordinators
// dispatch to).
func (l *Loopback) Add(name string, w *Worker) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.workers[name] = &loopbackWorker{
		worker:    w,
		killAfter: -1,
		cancels:   make(map[*context.CancelFunc]struct{}),
	}
}

// Kill marks the named worker dead: its in-flight jobs abort, and
// every later Run or Status against it fails.
func (l *Loopback) Kill(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lw := l.workers[name]; lw != nil {
		lw.die()
	}
}

// die marks the worker dead and aborts its in-flight jobs.  Callers
// hold l.mu.
func (lw *loopbackWorker) die() {
	lw.dead = true
	for cancel := range lw.cancels {
		(*cancel)()
	}
}

// Drain marks the named worker draining, mirroring a sweepd that
// received SIGTERM: new Runs are refused with ErrWorkerDraining, while
// jobs already in flight finish and Status keeps answering with
// Draining set — healthy but unavailable.
func (l *Loopback) Drain(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lw := l.workers[name]; lw != nil {
		lw.draining = true
	}
}

// KillAfterPoints arms an injected death: the named worker dies as
// soon as it has delivered n points in total (across jobs), truncating
// whatever shard it is running at that moment — exactly what a
// process crash mid-stream looks like to the coordinator.
func (l *Loopback) KillAfterPoints(name string, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lw := l.workers[name]; lw != nil {
		lw.killAfter = n
	}
}

// Run executes the job on the named worker in process, forwarding each
// point to emit; it fails like a network transport would when the
// worker is dead or dies mid-shard.
func (l *Loopback) Run(ctx context.Context, worker string, job Job, emit func(PointResult) error) error {
	l.mu.Lock()
	lw := l.workers[worker]
	if lw == nil {
		l.mu.Unlock()
		return fmt.Errorf("distrib: unknown loopback worker %q", worker)
	}
	if lw.dead {
		l.mu.Unlock()
		return fmt.Errorf("distrib: loopback worker %q is dead", worker)
	}
	if lw.draining {
		l.mu.Unlock()
		return &TransportError{Worker: worker, Op: "submit", Err: ErrWorkerDraining}
	}
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	lw.cancels[&cancel] = struct{}{}
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(lw.cancels, &cancel)
		l.mu.Unlock()
	}()

	err := lw.worker.Execute(jctx, job, func(pr PointResult) error {
		l.mu.Lock()
		if lw.dead {
			l.mu.Unlock()
			return fmt.Errorf("distrib: loopback worker %q died mid-shard", worker)
		}
		if lw.killAfter >= 0 && lw.emitted >= lw.killAfter {
			lw.die()
			l.mu.Unlock()
			return fmt.Errorf("distrib: loopback worker %q died mid-shard", worker)
		}
		lw.emitted++
		l.mu.Unlock()
		return emit(pr)
	})
	if err != nil {
		return err
	}
	// Death can land between the last point and stream completion.
	l.mu.Lock()
	dead := lw.dead
	l.mu.Unlock()
	if dead {
		return fmt.Errorf("distrib: loopback worker %q died mid-shard", worker)
	}
	return nil
}

// Status returns the named worker's live telemetry snapshot, failing
// for unknown or dead workers.
func (l *Loopback) Status(_ context.Context, worker string) (Status, error) {
	l.mu.Lock()
	lw := l.workers[worker]
	switch {
	case lw == nil:
		l.mu.Unlock()
		return Status{}, fmt.Errorf("distrib: unknown loopback worker %q", worker)
	case lw.dead:
		l.mu.Unlock()
		return Status{}, fmt.Errorf("distrib: loopback worker %q is dead", worker)
	}
	w, draining := lw.worker, lw.draining
	l.mu.Unlock()
	st := w.Status()
	st.Draining = draining
	return st, nil
}

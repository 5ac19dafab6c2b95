package sim

import (
	"fmt"
	"time"
)

// Resource is a capacity-limited server with a FIFO wait queue, driven by
// an Engine.  It models hardware units that serve one job at a time per
// unit — teleporters in a T' node set, generators in a G node, queue
// purifiers in a P node.
//
// It is a Semaphore whose credits are the units — the semaphore holds
// the wait queue, the hand-over to the oldest waiter and the
// over-release check — plus busy-time accounting and the Serve pattern.
// TakeOn grants a job a unit (at the engine's current time); the job
// must eventually call Release exactly once (typically after scheduling
// the service latency).
type Resource struct {
	units  Semaphore
	engine *Engine

	// freeJobs recycles the per-Serve bookkeeping records, so the
	// acquire-serve-release pattern allocates nothing in steady state.
	freeJobs *serveJob

	// busy is the sum of the times units went back to the pool minus
	// the sum of the times they left it.  A unit handed from one job
	// straight to the next stays busy, so the hand-over changes
	// nothing.  Adding InUse()·now counts the units still out up to
	// now, which makes Busy exact in integer nanoseconds.
	busy time.Duration
}

// serveJob is the reusable record of one Serve call: the service
// latency to hold the unit for and the completion continuation.  Records
// cycle through the owning resource's free list; a queued Serve waits on
// the record's own node as the call (serveStart, job), and the scheduled
// completion event carries the record as its argument, so a Serve
// performs no per-call allocation.
type serveJob struct {
	r       *Resource
	latency time.Duration
	done    func(any)
	arg     any
	wait    Waiter
	next    *serveJob // free-list link
}

// NewResource creates a resource with the given unit count.
func NewResource(engine *Engine, name string, capacity int) (*Resource, error) {
	r := &Resource{engine: engine}
	if err := r.units.init(name, capacity); err != nil {
		return nil, err
	}
	if engine == nil {
		return nil, fmt.Errorf("sim: resource %q needs an engine", name)
	}
	return r, nil
}

// Capacity returns the number of units.
func (r *Resource) Capacity() int { return r.units.limit }

// InUse returns the number of units currently serving jobs.
func (r *Resource) InUse() int { return r.units.limit - r.units.credits }

// QueueLen returns the number of jobs waiting for a unit.
func (r *Resource) QueueLen() int { return r.units.waiting }

// TakeOn is Semaphore.TakeOn on the units: it takes a free unit and
// reports true without calling fn, or queues fn(arg) on the caller's
// node w (a recycled one when w is nil) for the hand-over and reports
// false.
func (r *Resource) TakeOn(w *Waiter, fn func(any), arg any) bool {
	if !r.units.TakeOn(w, fn, arg) {
		return false
	}
	r.busy -= r.engine.now
	return true
}

// Release frees a unit, immediately handing it to the oldest waiting job
// if any.
func (r *Resource) Release() {
	handOver := r.units.head != nil
	r.units.Release()
	if !handOver {
		r.busy += r.engine.now // the unit went back to the pool
	}
}

// Serve is the common acquire-serve-release pattern: wait for a unit,
// hold it for latency of simulated time, then run done (may be nil).
func (r *Resource) Serve(latency time.Duration, done func()) {
	if done == nil {
		r.ServeCall(latency, nil, nil)
		return
	}
	r.ServeCall(latency, runFunc, done)
}

// ServeCall is Serve in the call form, running done(arg) (done may be
// nil) after the service.  It allocates nothing in steady state: its
// bookkeeping record is recycled through a free list, it waits on the
// record's own node, and neither the wait nor the completion event
// captures a closure.  A caller that already keeps a record per job can
// hand-roll the same cycle on it, TakeOn then Engine.ScheduleOn then
// Release, and skip the free list; netsim's batches do.
func (r *Resource) ServeCall(latency time.Duration, done func(any), arg any) {
	j := r.freeJobs
	if j != nil {
		r.freeJobs = j.next
		j.next = nil
	} else {
		j = &serveJob{r: r}
	}
	j.latency, j.done, j.arg = latency, done, arg
	if r.TakeOn(&j.wait, serveStart, j) {
		serveStart(j)
	}
}

// serveStart runs once a Serve holds its unit: it schedules the job's
// completion after its service latency.
func serveStart(a any) {
	j := a.(*serveJob)
	j.r.engine.ScheduleCall(j.latency, serveComplete, j)
}

// serveComplete is the completion event of a Serve: release the unit,
// then run the caller's continuation.  It is a package-level function so
// scheduling it captures no closure.
func serveComplete(a any) {
	j := a.(*serveJob)
	r, done, arg := j.r, j.done, j.arg
	j.done, j.arg = nil, nil
	j.next = r.freeJobs
	r.freeJobs = j
	r.Release()
	if done != nil {
		done(arg)
	}
}

// Busy returns the aggregate unit-busy time so far (unit-seconds of
// service).  It only reads, so a probe may call it mid-run.
func (r *Resource) Busy() time.Duration {
	return r.busy + time.Duration(r.InUse())*r.engine.now
}

// Utilization returns the fraction of unit-time spent busy since the
// start of the simulation (0 if no time has passed).
func (r *Resource) Utilization() float64 {
	total := time.Duration(r.Capacity()) * r.engine.Now()
	if total <= 0 {
		return 0
	}
	return float64(r.Busy()) / float64(total)
}

// Tally accumulates scalar observations: count, mean and max.
type Tally struct {
	n   uint64
	sum float64
	max float64
}

// Add records one observation.
func (t *Tally) Add(x float64) {
	if t.n == 0 || x > t.max {
		t.max = x
	}
	t.n++
	t.sum += x
}

// Count returns the number of observations.
func (t *Tally) Count() uint64 { return t.n }

// Mean returns the average observation (0 when empty).
func (t *Tally) Mean() float64 {
	if t.n == 0 {
		return 0
	}
	return t.sum / float64(t.n)
}

// Max returns the largest observation (0 when empty).
func (t *Tally) Max() float64 { return t.max }

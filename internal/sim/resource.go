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
// AcquireCall runs a job once a unit is held (at the engine's current
// time); the job must eventually call Release exactly once (typically
// after scheduling the service latency).
type Resource struct {
	units  Semaphore
	engine *Engine

	// freeJobs recycles the per-Serve bookkeeping records, so the
	// acquire-serve-release pattern allocates nothing in steady state.
	freeJobs *serveJob

	// busyTime is the unit-busy time accounted up to lastChange.
	busyTime   time.Duration
	lastChange time.Duration
}

// serveJob is the reusable record of one Serve call: the service
// latency to hold the unit for and the completion continuation.  Records
// cycle through the owning resource's free list; a queued Serve waits as
// the call (serveStart, job), and the scheduled completion event carries
// the record as its argument, so a Serve performs no per-call
// allocation.
type serveJob struct {
	r       *Resource
	latency time.Duration
	done    func(any)
	arg     any
	next    *serveJob // free-list link
}

// NewResource creates a resource with the given unit count.
func NewResource(engine *Engine, name string, capacity int) (*Resource, error) {
	return NewLazyResource(engine, func() string { return name }, capacity)
}

// NewLazyResource is NewResource with deferred naming: name is called at
// most once, the first time the resource's name is actually needed (an
// error message, a statistics report).  Simulators that build thousands
// of resources per run use it to keep name formatting off the build
// path.
func NewLazyResource(engine *Engine, name func() string, capacity int) (*Resource, error) {
	r := &Resource{engine: engine}
	if err := r.units.init(name, capacity); err != nil {
		return nil, err
	}
	if engine == nil {
		return nil, fmt.Errorf("sim: resource %q needs an engine", r.Name())
	}
	return r, nil
}

// Name returns the resource's name, resolving a lazy name on first use.
func (r *Resource) Name() string { return r.units.Name() }

// Capacity returns the number of units.
func (r *Resource) Capacity() int { return r.units.limit }

// InUse returns the number of units currently serving jobs.
func (r *Resource) InUse() int { return r.units.limit - r.units.credits }

// QueueLen returns the number of jobs waiting for a unit.
func (r *Resource) QueueLen() int { return r.units.waiting.len() }

// AcquireCall runs fn(arg) once a unit is held: synchronously if a unit
// is free now, otherwise when a Release hands one over.  With fn a
// package-level function and arg a pointer to reusable state it
// allocates nothing once the wait queue has grown to its working size.
func (r *Resource) AcquireCall(fn func(any), arg any) {
	if r.units.credits > 0 {
		r.accountBusy() // a unit is about to be granted
	}
	r.units.AcquireCall(fn, arg)
}

// Release frees a unit, immediately handing it to the oldest waiting job
// if any.
func (r *Resource) Release() {
	r.accountBusy()
	r.units.Release()
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
// nil) after the service.  Unlike hand-rolling AcquireCall+Schedule+
// Release it allocates nothing in steady state: its bookkeeping record
// is recycled through a free list and neither the wait nor the
// completion event captures a closure.
func (r *Resource) ServeCall(latency time.Duration, done func(any), arg any) {
	j := r.freeJobs
	if j != nil {
		r.freeJobs = j.next
		j.next = nil
	} else {
		j = &serveJob{r: r}
	}
	j.latency, j.done, j.arg = latency, done, arg
	r.AcquireCall(serveStart, j)
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

// accountBusy adds the unit-busy time since the last grant or release.
// It runs before every change of the units in use.
func (r *Resource) accountBusy() {
	now := r.engine.Now()
	r.busyTime += time.Duration(r.InUse()) * (now - r.lastChange)
	r.lastChange = now
}

// Busy returns the aggregate unit-busy time so far (unit-seconds of
// service).
func (r *Resource) Busy() time.Duration {
	r.accountBusy()
	return r.busyTime
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

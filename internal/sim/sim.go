// Package sim is a small deterministic discrete-event simulation engine:
// an event queue with stable FIFO ordering for simultaneous events, plus
// capacity-limited resources and basic statistics used by the network
// simulator.  It plays the role of the event-driven core of the paper's
// (Java) communication simulator.
//
// The engine is built for the simulator's hot path, which schedules
// millions of events over a few dozen distinct delays.  It keeps one
// FIFO ring per distinct delay instead of one heap of all events: the
// clock never goes back and scheduling sequence numbers only rise, so
// events pushed with the same delay arrive in (time, sequence) order
// and each FIFO is already sorted.  A small 4-ary heap over the FIFO
// heads then picks the next event.  Scheduling onto a non-empty FIFO
// is O(1), and a step sifts a heap of at most one entry per delay in
// use rather than one per pending event.  Each FIFO entry holds its
// continuation, one (func(any), any) call, inline, since nothing sifts
// FIFO entries, and scheduling does not allocate once the rings have
// grown to the working-set size.  Semaphore's
// waiter queue is the same ring, and Resource is a Semaphore of units
// plus busy-time accounting and service scheduling.
package sim

import (
	"context"
	"fmt"
	"time"
)

// Engine is a discrete-event simulator clock and pending-event queue.
// Events scheduled for the same instant run in scheduling order, which
// keeps simulations deterministic.
type Engine struct {
	now     time.Duration
	seq     uint64
	stepped uint64
	pending int

	// fifos holds one ring of events per distinct delay.  Every FIFO is
	// either mapped in byDelay, possibly empty, or parked on spare.
	// Drained FIFOs stay mapped, because netsim reuses a few dozen
	// delays for a whole run.  Only when a new delay needs a FIFO, none
	// is spare and the FIFO count has reached 2×pending+fifoSlack does
	// sweep unmap the empty ones onto spare.  That keeps the FIFO count
	// bounded by the backlog, not by the number of delays ever used,
	// and the O(FIFOs) sweep is paid for by the new delays its spares
	// then serve, at least pending+fifoSlack of them.
	fifos   []eventFIFO
	byDelay map[time.Duration]int32
	spare   []int32
	// lastDelay and lastFIFO cache the most recent delay lookup, which
	// skips the map for runs of one delay.  lastDelay is -1, never a
	// clamped delay, when the cache is empty.
	lastDelay time.Duration
	lastFIFO  int32

	// heads is a 4-ary min-heap holding the (at, seq) key of each
	// non-empty FIFO's oldest event, so the heap root is the next event
	// to run.  Its entries are pointer-free; a 4-ary layout halves the
	// tree depth of a binary heap and keeps sibling comparisons inside
	// one or two cache lines.
	heads []headEntry

	// probe, when non-nil, is sampled at every probeInterval boundary of
	// simulated time (see SetProbe).  The disabled path costs one nil
	// check per Step and allocates nothing.
	probe         Probe
	probeInterval time.Duration
	probeNext     time.Duration
}

// fifoSlack is the constant in the sweep threshold 2×pending+fifoSlack:
// the FIFOs an engine may hold before it recycles drained ones.
const fifoSlack = 64

// Probe observes the engine at fixed simulated-time boundaries.  It is
// the telemetry hook of the tracing layer: Step calls Sample(t, n) for
// every boundary t the clock crosses, before executing the event that
// crosses it, with n the events executed so far.  Sampling happens
// outside the event queue — a probe never schedules events, so a probed
// run executes exactly the same events as an unprobed one (Processed
// and every model counter are unaffected).  Sample must not mutate the
// model; it runs on the engine's goroutine.
type Probe interface {
	Sample(now time.Duration, processed uint64)
}

// event is one pending event: its ordering key and its continuation,
// held inline in its delay's FIFO.  Inline continuations cost nothing
// here because nothing sifts a FIFO's entries; in a heap of all
// events, whose every sift moves them, they made every perfbench QFT
// body 6–34% slower.
type event struct {
	at  time.Duration
	seq uint64
	call
}

// eventFIFO is the ring of pending events scheduled with one delay, in
// (at, seq) order.
type eventFIFO struct {
	events ring[event]
	delay  time.Duration
}

// headEntry is one head-heap element: the key of a FIFO's oldest event
// and the FIFO's index.
type headEntry struct {
	at   time.Duration
	seq  uint64
	fifo int32
}

// New returns an engine with the clock at zero and no pending events.
func New() *Engine {
	return &Engine{byDelay: make(map[time.Duration]int32), lastDelay: -1}
}

// Now returns the current simulation time.
func (e *Engine) Now() time.Duration { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.stepped }

// Pending returns the number of events waiting to run.
func (e *Engine) Pending() int { return e.pending }

// SetProbe installs (or, with a nil probe, removes) the engine's
// sampling probe.  The first sample fires at the first multiple of
// interval strictly after the current clock, then every interval of
// simulated time after that — boundaries are exact multiples of the
// interval, so two runs of the same model sample at identical instants
// regardless of their event times.  interval must be positive when a
// probe is installed.
func (e *Engine) SetProbe(p Probe, interval time.Duration) {
	if p == nil {
		e.probe = nil
		return
	}
	if interval <= 0 {
		panic(fmt.Sprintf("sim: probe interval must be positive, got %v", interval))
	}
	e.probe = p
	e.probeInterval = interval
	e.probeNext = (e.now/interval + 1) * interval
}

// runProbe fires the probe for every interval boundary up to and
// including t, advancing the clock to each boundary first so time-based
// statistics (resource busy time) are exact at the sampling instant.
// It is kept out of line so the probe-disabled Step stays small.
func (e *Engine) runProbe(t time.Duration) {
	for t >= e.probeNext {
		if e.probeNext > e.now {
			e.now = e.probeNext
		}
		e.probe.Sample(e.probeNext, e.stepped)
		e.probeNext += e.probeInterval
	}
}

// Schedule runs fn after delay of simulated time.  A negative delay is
// treated as zero (run at the current instant, after already-queued
// events for that instant).
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	if fn == nil {
		panic("sim: scheduling nil event function")
	}
	e.ScheduleCall(delay, runFunc, fn)
}

// ScheduleCall runs fn(arg) after delay of simulated time, with the
// same ordering semantics as Schedule.  It is the allocation-free form
// for hot paths: with fn a package-level function and arg a pointer to
// reusable state, scheduling captures no closure, so the call allocates
// nothing once the engine's rings have reached steady state.
func (e *Engine) ScheduleCall(delay time.Duration, fn func(any), arg any) {
	if delay < 0 {
		delay = 0
	}
	if fn == nil {
		panic("sim: scheduling nil event function")
	}
	e.seq++
	at := e.now + delay
	i := e.fifoFor(delay)
	f := &e.fifos[i]
	if f.events.len() == 0 {
		e.pushHead(headEntry{at: at, seq: e.seq, fifo: i})
	}
	ev := f.events.push()
	ev.at, ev.seq, ev.fn, ev.arg = at, e.seq, fn, arg
	e.pending++
}

// fifoFor returns the index of the FIFO holding delay's events,
// assigning one on the delay's first use since its FIFO was swept.
func (e *Engine) fifoFor(delay time.Duration) int32 {
	if delay == e.lastDelay {
		return e.lastFIFO
	}
	i, ok := e.byDelay[delay]
	if !ok {
		i = e.newFIFO(delay)
	}
	e.lastDelay, e.lastFIFO = delay, i
	return i
}

// newFIFO maps an empty FIFO to delay.  It takes a spare one, first
// sweeping for spares if there are none and the FIFO count has reached
// the threshold, and appends a new FIFO only when no spare exists.
func (e *Engine) newFIFO(delay time.Duration) int32 {
	if len(e.spare) == 0 && len(e.fifos) >= 2*e.pending+fifoSlack {
		e.sweep()
	}
	var i int32
	if n := len(e.spare); n > 0 {
		i = e.spare[n-1]
		e.spare = e.spare[:n-1]
	} else {
		i = int32(len(e.fifos))
		e.fifos = append(e.fifos, eventFIFO{})
	}
	e.fifos[i].delay = delay
	e.byDelay[delay] = i
	return i
}

// sweep unmaps every empty FIFO onto the spare list.  It runs only when
// spare is empty, so every FIFO is mapped; at most pending of them hold
// events, so at least pending+fifoSlack come free.  A recycled FIFO
// keeps its ring buffer.  The last-delay cache needs no reset: sweep
// runs only inside fifoFor's lookup of a new delay, which then caches
// that delay.
func (e *Engine) sweep() {
	for i := range e.fifos {
		f := &e.fifos[i]
		if f.events.len() == 0 {
			delete(e.byDelay, f.delay)
			e.spare = append(e.spare, int32(i))
		}
	}
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.heads) == 0 {
		return false
	}
	h := &e.heads[0]
	f := &e.fifos[h.fifo]
	ev := f.events.front()
	at, fn, arg := ev.at, ev.fn, ev.arg
	f.events.pop()
	if f.events.len() > 0 {
		// The FIFO's next event becomes its head; its key is no smaller.
		next := f.events.front()
		h.at, h.seq = next.at, next.seq
		e.siftDown()
	} else {
		e.popHead()
	}
	e.pending--
	if e.probe != nil && at >= e.probeNext {
		// Sample every boundary the clock is about to cross, before the
		// event that crosses it executes.
		e.runProbe(at)
	}
	e.now = at
	e.stepped++
	fn(arg)
	return true
}

// ctxCheckInterval is how many events Run executes between
// cancellation checks.  Checking ctx.Err() per event would dominate the
// hot loop; every 4096 events keeps cancellation latency well under a
// millisecond of wall time for any realistic model.
const ctxCheckInterval = 4096

// Run executes events until none remain or ctx is cancelled, returning
// the context's error when the run was cut short (Processed counts the
// events executed).  On cancellation the engine is left intact (clock
// and pending events preserved), so a caller may inspect or resume it.
func (e *Engine) Run(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for n := 0; ; n++ {
		if n%ctxCheckInterval == ctxCheckInterval-1 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !e.Step() {
			return nil
		}
	}
}

// headLess orders head entries by time, then by scheduling sequence,
// which is what makes simultaneous events run FIFO.
func headLess(a, b headEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// pushHead appends a FIFO's head entry and sifts it up the 4-ary heap.
func (e *Engine) pushHead(x headEntry) {
	e.heads = append(e.heads, x)
	h := e.heads
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !headLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// popHead removes the root entry, moving the tail entry to the root and
// sifting it down.
func (e *Engine) popHead() {
	n := len(e.heads) - 1
	e.heads[0] = e.heads[n]
	e.heads = e.heads[:n]
	e.siftDown()
}

// siftDown restores the heap order after the root's key grew.
func (e *Engine) siftDown() {
	h := e.heads
	n := len(h)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			return
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if headLess(h[j], h[m]) {
				m = j
			}
		}
		if !headLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

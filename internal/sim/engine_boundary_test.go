package sim

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRunContextCancelLandsOnCheckBoundary cancels the context from
// inside the event immediately preceding the periodic check, so the
// very next loop iteration must observe it: the run stops having
// executed ctxCheckInterval-1 events, with the remaining events intact.
func TestRunContextCancelLandsOnCheckBoundary(t *testing.T) {
	e := New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	total := ctxCheckInterval + 16
	ran := 0
	for i := 0; i < total; i++ {
		i := i
		e.Schedule(time.Duration(i)*time.Microsecond, func() {
			ran++
			// The check fires before executing event index
			// ctxCheckInterval-1, so cancelling in the previous event is
			// the tightest cancellation the loop can observe.
			if i == ctxCheckInterval-2 {
				cancel()
			}
		})
	}
	err := e.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	n := e.Processed()
	if n != ctxCheckInterval-1 {
		t.Errorf("executed %d events, want %d (cancelled exactly at the check)", n, ctxCheckInterval-1)
	}
	if int(n) != ran {
		t.Errorf("processed count %d != callback count %d", n, ran)
	}
	if e.pending != total-int(n) {
		t.Errorf("pending = %d, want %d (engine left intact)", e.pending, total-int(n))
	}
}

// TestScheduleCallOrdersWithSchedule verifies the allocation-free
// ScheduleCall form shares the engine's FIFO ordering with Schedule:
// interleaved calls at one instant run in scheduling order.
func TestScheduleCallOrdersWithSchedule(t *testing.T) {
	e := New()
	var order []int
	appendLabel := func(a any) { order = append(order, a.(int)) }
	e.Schedule(time.Microsecond, func() { order = append(order, 0) })
	e.ScheduleCall(time.Microsecond, appendLabel, 1)
	e.Schedule(time.Microsecond, func() { order = append(order, 2) })
	e.ScheduleCall(time.Microsecond, appendLabel, 3)
	run(t, e)
	for i, v := range order {
		if v != i {
			t.Fatalf("execution order %v, want [0 1 2 3]", order)
		}
	}
	if len(order) != 4 {
		t.Fatalf("ran %d events, want 4", len(order))
	}
}

// TestScheduleCallPanicsOnNilFunc mirrors Schedule's nil-function
// contract for the call form.
func TestScheduleCallPanicsOnNilFunc(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("nil event function should panic")
		}
	}()
	e.ScheduleCall(0, nil, nil)
}

// TestSchedulingAllocationFreeOnceWarm pins the event core's promise:
// once the rings cover the backlog, a schedule/step cycle performs zero
// heap allocations.  (AllocsPerRun runs its function once before it
// measures; that run grows the rings.)  The call-form waiters keep it:
// a ServeCall cycle, an AcquireCall cycle, a Take cycle and a TakeOn
// cycle on the waiter's own node, each with a waiter queued, allocate
// nothing once warm.
func TestSchedulingAllocationFreeOnceWarm(t *testing.T) {
	e := New()
	fn := func() {}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 256; i++ {
			e.Schedule(time.Duration(i+1)*time.Microsecond, fn)
		}
		for e.Step() {
		}
	})
	if allocs != 0 {
		t.Errorf("schedule/step cycle allocated %.1f objects per run, want 0", allocs)
	}

	// The same cycle through a Queue handle.
	q := e.Queue(time.Microsecond)
	allocs = testing.AllocsPerRun(20, func() {
		for i := 0; i < 256; i++ {
			e.ScheduleOn(q, runFunc, fn)
		}
		for e.Step() {
		}
	})
	if allocs != 0 {
		t.Errorf("ScheduleOn/step cycle allocated %.1f objects per run, want 0", allocs)
	}

	// One job in service on a one-unit resource and one queued behind
	// it; every completion hands the unit over and queues the next job.
	r, err := NewResource(e, "r", 1)
	if err != nil {
		t.Fatal(err)
	}
	r.ServeCall(time.Microsecond, serveAgain, r)
	r.ServeCall(time.Microsecond, serveAgain, r)
	allocs = testing.AllocsPerRun(20, func() {
		for i := 0; i < 256; i++ {
			e.Step()
		}
	})
	if allocs != 0 || r.QueueLen() != 1 {
		t.Errorf("ServeCall cycle allocated %.1f objects per run with %d queued, want 0 with 1", allocs, r.QueueLen())
	}

	// A one-credit semaphore whose holder is always queued again behind
	// the credit it just handed over.
	sem, err := NewSemaphore("s", 1)
	if err != nil {
		t.Fatal(err)
	}
	sem.AcquireCall(acquireAgain, sem)
	allocs = testing.AllocsPerRun(20, func() {
		for i := 0; i < 256; i++ {
			sem.Release()
		}
	})
	if allocs != 0 || sem.Waiting() != 1 {
		t.Errorf("AcquireCall cycle allocated %.1f objects per run with %d waiting, want 0 with 1", allocs, sem.Waiting())
	}

	// The same cycle through Take, on nodes the semaphore recycles.
	sem, err = NewSemaphore("take", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sem.Take(takeAgain, sem) || sem.Take(takeAgain, sem) {
		t.Fatal("Take did not take the free credit and queue behind it")
	}
	allocs = testing.AllocsPerRun(20, func() {
		for i := 0; i < 256; i++ {
			sem.Release()
		}
	})
	if allocs != 0 || sem.Waiting() != 1 {
		t.Errorf("Take cycle allocated %.1f objects per run with %d waiting, want 0 with 1", allocs, sem.Waiting())
	}

	// The same cycle through TakeOn on the waiter's own node, the path
	// netsim's stages wait on.
	own := &ownWaiter{}
	own.sem, err = NewSemaphore("own", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !own.sem.TakeOn(&own.wait, takeOnAgain, own) || own.sem.TakeOn(&own.wait, takeOnAgain, own) {
		t.Fatal("TakeOn did not take the free credit and queue behind it")
	}
	allocs = testing.AllocsPerRun(20, func() {
		for i := 0; i < 256; i++ {
			own.sem.Release()
		}
	})
	if allocs != 0 || own.sem.Waiting() != 1 {
		t.Errorf("TakeOn cycle allocated %.1f objects per run with %d waiting, want 0 with 1", allocs, own.sem.Waiting())
	}
}

// ownWaiter is a record that waits for its semaphore on its own node.
type ownWaiter struct {
	sem  *Semaphore
	wait Waiter
}

// takeOnAgain queues its record for another credit on the record's
// node, which the hand-over has just freed.
func takeOnAgain(a any) {
	w := a.(*ownWaiter)
	w.sem.TakeOn(&w.wait, takeOnAgain, w)
}

// serveAgain queues another one-microsecond job on its resource.
func serveAgain(a any) {
	r := a.(*Resource)
	r.ServeCall(time.Microsecond, serveAgain, r)
}

// acquireAgain queues for another credit of its semaphore.
func acquireAgain(a any) {
	s := a.(*Semaphore)
	s.AcquireCall(acquireAgain, s)
}

// takeAgain queues for another credit of its semaphore: the credit it
// was just handed is still out, so Take queues it.
func takeAgain(a any) {
	s := a.(*Semaphore)
	s.Take(takeAgain, s)
}

// TestEngineFIFOCountBoundedByBacklog churns 1M events, each with a
// fresh random delay, through an engine that never holds more than 32
// pending.  The sweep must keep the unpinned FIFO count within the
// bound it guarantees, 2×pending+fifoSlack, rather than one FIFO per
// delay ever used; the delay map must hold no more entries than there
// are FIFOs; and the churn must allocate nothing once warm.  It runs
// again with more Queue handles pinned than the sweep threshold, and
// one schedule in four on them: pinned FIFOs are never swept and do not
// count towards the threshold, so pinning must neither break the bound
// nor make every new delay sweep.  A sweep frees at least fifoSlack
// FIFOs, so the schedules that leave the delay map no larger (a sweep,
// or a rare repeated delay) stay below events/fifoSlack.
func TestEngineFIFOCountBoundedByBacklog(t *testing.T) {
	const maxPending, events, measured = 32, 1_000_000, 100
	for _, pin := range []int{0, 3 * fifoSlack} {
		e := New()
		fn := func() {}
		var queues []Queue
		for i := 0; i < pin; i++ {
			queues = append(queues, e.Queue(time.Hour+time.Duration(i)))
		}
		x := uint64(88172645463325252)
		unmapped := 0 // fresh-delay schedules that did not grow the delay map
		churn := func(n int) {
			for i := 0; i < n; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				if pin > 0 && x%4 == 0 {
					e.ScheduleOn(queues[x>>2%uint64(pin)], runFunc, fn)
				} else {
					mapped := len(e.byDelay)
					e.Schedule(time.Duration(1+x>>34), fn)
					if len(e.byDelay) <= mapped {
						unmapped++
					}
				}
				if e.pending == maxPending {
					e.Step()
				}
			}
		}
		churn(events - (measured+1)*1000)
		allocs := testing.AllocsPerRun(measured, func() { churn(1000) })
		if allocs != 0 {
			t.Errorf("%d pinned: fresh-delay churn allocated %.2f objects per 1,000 events once warm, want 0", pin, allocs)
		}
		if bound := 2*maxPending + fifoSlack; len(e.fifos)-pin > bound {
			t.Errorf("%d pinned: %d unpinned FIFOs for at most %d pending, want at most %d", pin, len(e.fifos)-pin, maxPending, bound)
		}
		if e.pinned != pin {
			t.Errorf("engine counts %d pinned FIFOs, want %d", e.pinned, pin)
		}
		if len(e.byDelay) > len(e.fifos) {
			t.Errorf("%d pinned: %d mapped delays for %d FIFOs", pin, len(e.byDelay), len(e.fifos))
		}
		if unmapped > events/fifoSlack {
			t.Errorf("%d pinned: %d schedules swept or repeated a delay, want at most %d", pin, unmapped, events/fifoSlack)
		}
		if e.Processed()+uint64(e.pending) != events {
			t.Errorf("%d pinned: processed %d + pending %d, want %d events", pin, e.Processed(), e.pending, events)
		}
		t.Logf("%d pinned: %d FIFOs, %d mapped, %d pending, %d schedules swept or repeated a delay",
			pin, len(e.fifos), len(e.byDelay), e.pending, unmapped)
	}
}

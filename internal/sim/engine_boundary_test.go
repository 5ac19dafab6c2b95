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
	if e.Pending() != total-int(n) {
		t.Errorf("pending = %d, want %d (engine left intact)", e.Pending(), total-int(n))
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

// TestReserveMakesSchedulingAllocationFree pins the arena design's
// core promise: after Reserve covers the backlog, a schedule/step
// cycle performs zero heap allocations.  The call-form waiters keep
// it: a ServeCall cycle and an AcquireCall cycle, each with a waiter
// queued, allocate nothing once warm.
func TestReserveMakesSchedulingAllocationFree(t *testing.T) {
	e := New()
	e.Reserve(512)
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

// TestReserveNeverShrinks documents that a smaller Reserve is a no-op.
func TestReserveNeverShrinks(t *testing.T) {
	e := New()
	e.Reserve(256)
	heapCap, arenaCap := cap(e.heap), cap(e.arena)
	e.Reserve(16)
	if cap(e.heap) != heapCap || cap(e.arena) != arenaCap {
		t.Errorf("Reserve(16) changed capacities %d/%d to %d/%d",
			heapCap, arenaCap, cap(e.heap), cap(e.arena))
	}
}

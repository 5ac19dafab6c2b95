package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// oracleEngine is a faithful copy of the pre-refactor engine — a
// container/heap of boxed events — kept as the behavioral oracle for
// the randomized equivalence test below.  Any divergence in pop order,
// clock or pending count between it and the engine is a bug in the
// engine.
type oracleEngine struct {
	now    time.Duration
	events oracleHeap
	seq    uint64
}

func (e *oracleEngine) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	heap.Push(&e.events, &oracleEvent{at: e.now + delay, seq: e.seq, fn: fn})
}

func (e *oracleEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*oracleEvent)
	e.now = ev.at
	ev.fn()
	return true
}

func (e *oracleEngine) Pending() int { return len(e.events) }

type oracleEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x interface{}) { *h = append(*h, x.(*oracleEvent)) }
func (h *oracleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// TestEngineMatchesOracleOnRandomOps drives the engine and the
// pre-refactor oracle through identical randomized Schedule/Step
// sequences — including events scheduled from inside running events —
// and demands bit-identical observable behavior: the same (time, seq)
// pop order, the same clock and the same pending counts, through to
// the drained queue.  Delays come from a mix that reaches every queue
// path: a few netsim-like delays repeated all trial long, zero and
// negative delays (which clamp to zero), and fresh random delays,
// numerous enough that the empty-FIFO sweep runs mid-trial and a
// recycled FIFO serves a different delay.  A share of the schedules
// goes through Queue handles: two resolved before the trial on
// repeated delays, which also arrive through Schedule, and one resolved
// on a fresh delay once the sweep has recycled a FIFO mid-trial.  Every
// handle's FIFO must keep its delay, however often the sweep runs.
func TestEngineMatchesOracleOnRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(20060618))
	repeated := []time.Duration{
		122 * time.Microsecond, 122600 * time.Nanosecond,
		2 * time.Microsecond, 723600 * time.Nanosecond,
	}
	type handle struct {
		delay time.Duration
		q     Queue
	}
	recycled := 0 // schedules that found their FIFO serving a new delay
	onHandle := 0 // schedules through a handle resolved mid-trial
	for trial := 0; trial < 100; trial++ {
		e := New()
		o := &oracleEngine{}
		var got, want []int
		owner := make(map[int32]time.Duration) // FIFO -> delay it last served
		handles := []handle{
			{repeated[0], e.Queue(repeated[0])},
			{repeated[2], e.Queue(repeated[2])},
		}
		label := 0
		ops := 200 + rng.Intn(800)
		for i := 0; i < ops; i++ {
			switch rng.Intn(5) {
			case 0, 1: // schedule the same event in both engines
				k := label
				label++
				var d time.Duration
				h := -1 // the handle scheduled on, or -1 for Schedule
				switch r := rng.Intn(12); {
				case r < 4:
					d = repeated[rng.Intn(len(repeated))]
				case r < 5:
					d = -time.Duration(rng.Intn(3)) * time.Microsecond
				case r < 7:
					h = rng.Intn(len(handles))
					d = handles[h].delay
				default:
					d = time.Duration(1 + rng.Int63n(int64(time.Millisecond)))
				}
				// Every third event schedules a follow-up from inside
				// its own execution.
				follow := time.Duration(k%7) * time.Microsecond
				body := func() {
					got = append(got, k)
					if k%3 == 0 {
						e.Schedule(follow, func() { got = append(got, -k-1) })
					}
				}
				if h >= 0 {
					e.ScheduleOn(handles[h].q, runFunc, body)
					if h >= 2 { // the handle resolved after a sweep
						onHandle++
					}
				} else {
					e.Schedule(d, body)
				}
				o.Schedule(d, func() {
					want = append(want, k)
					if k%3 == 0 {
						o.Schedule(follow, func() { want = append(want, -k-1) })
					}
				})
				d = max(d, 0)
				f := e.byDelay[d]
				if prev, ok := owner[f]; ok && prev != d {
					recycled++
					if len(handles) == 2 {
						// The sweep has recycled a FIFO: pin the fresh
						// delay just scheduled.
						handles = append(handles, handle{d, e.Queue(d)})
					}
				}
				owner[f] = d
			case 2, 3, 4: // step both
				if g, w := e.Step(), o.Step(); g != w {
					t.Fatalf("trial %d: Step() = %v, oracle %v", trial, g, w)
				}
				if e.Now() != o.now {
					t.Fatalf("trial %d: clock %v, oracle %v", trial, e.Now(), o.now)
				}
			}
			if e.pending != o.Pending() {
				t.Fatalf("trial %d: pending %d, oracle %d", trial, e.pending, o.Pending())
			}
			for _, h := range handles {
				if f := h.q.fifo - 1; e.fifos[f].delay != h.delay || e.byDelay[h.delay] != f {
					t.Fatalf("trial %d: handle on %v holds FIFO %d, which serves %v; the delay map gives FIFO %d",
						trial, h.delay, f, e.fifos[f].delay, e.byDelay[h.delay])
				}
			}
		}
		for { // drain both queues to the end
			g, w := e.Step(), o.Step()
			if g != w {
				t.Fatalf("trial %d: drain Step() = %v, oracle %v", trial, g, w)
			}
			if !g {
				break
			}
		}
		if e.pending != 0 {
			t.Fatalf("trial %d: %d events pending after drain", trial, e.pending)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: executed %d events, oracle %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: execution order diverges at %d: got event %d, oracle %d",
					trial, i, got[i], want[i])
			}
		}
	}
	if recycled == 0 {
		t.Error("no schedule landed on a recycled FIFO: the sweep path went untested")
	}
	if onHandle == 0 {
		t.Error("no schedule went through a handle resolved after a sweep")
	}
	t.Logf("%d schedules landed on a FIFO recycled from another delay, %d on a handle resolved after a sweep", recycled, onHandle)
}

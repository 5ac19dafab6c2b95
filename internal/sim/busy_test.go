package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// busyJob is one unit request of a busy-time trial.
type busyJob struct {
	tr *busyTrial
	id int
	// serve is a Serve job's latency; TakeOn jobs have 0 and are
	// released by the trial.
	serve             time.Duration
	granted, released bool
	start, end        time.Duration
	// wait is the job's own node, for TakeOn jobs that queue on it.
	wait Waiter
}

// busyEvent is one callback a trial observed: a grant of a TakeOn job
// that waited, or the completion of a Serve job.
type busyEvent struct {
	id   int
	done bool
	at   time.Duration
}

// busyTrial drives one resource through random TakeOn (on recycled and
// on owned nodes), Serve and Release calls and engine steps, next to a
// brute-force oracle: a
// mirror of the units and the FIFO wait queue that keeps every unit
// hold and sums the busy time over them directly.
type busyTrial struct {
	t   *testing.T
	rng *rand.Rand
	e   *Engine
	r   *Resource
	// read reads Busy and Utilization after every step and, through a
	// probe, at every interval boundary; handOff releases a unit only
	// while a job waits for it, and never serves.
	read, handOff bool

	free   int
	queue  []*busyJob
	jobs   []*busyJob
	called []*busyJob // grant callbacks since the last check
	want   []*busyJob // oracle grants that must call back, in order
	served []*busyJob // Serve completions since the last check
	trace  []busyEvent

	handOvers, toPool, readings int
}

func newBusyTrial(t *testing.T, seed int64, capacity int, read, handOff bool) *busyTrial {
	t.Helper()
	e := New()
	r, err := NewResource(e, "r", capacity)
	if err != nil {
		t.Fatal(err)
	}
	tr := &busyTrial{t: t, rng: rand.New(rand.NewSource(seed)), e: e, r: r, read: read, handOff: handOff, free: capacity}
	interval := time.Duration(1 + tr.rng.Intn(2000)) // drawn either way, so both runs act alike
	if read {
		e.SetProbe(busyProbe{tr, interval}, interval)
	}
	return tr
}

// busyProbe compares the resource with the oracle at every interval
// boundary.
type busyProbe struct {
	tr       *busyTrial
	interval time.Duration
}

func (p busyProbe) Sample(now time.Duration, _ uint64) time.Duration {
	if now != p.tr.e.Now() {
		p.tr.t.Fatalf("probe at %v with the clock at %v", now, p.tr.e.Now())
	}
	p.tr.compare("probe")
	return now + p.interval
}

// busyGranted is the continuation of TakeOn jobs.
func busyGranted(a any) {
	j := a.(*busyJob)
	j.tr.called = append(j.tr.called, j)
	j.tr.trace = append(j.tr.trace, busyEvent{id: j.id, at: j.tr.e.Now()})
}

func (tr *busyTrial) newJob(serve time.Duration) *busyJob {
	j := &busyJob{tr: tr, id: len(tr.jobs), serve: serve}
	tr.jobs = append(tr.jobs, j)
	return j
}

// request mirrors a unit request: a free unit is granted now, otherwise
// the job queues.
func (tr *busyTrial) request(j *busyJob) bool {
	if tr.free == 0 {
		tr.queue = append(tr.queue, j)
		return false
	}
	tr.free--
	j.granted, j.start = true, tr.e.Now()
	return true
}

// release mirrors the release of j's unit: the oldest waiter gets it,
// or it goes back to the pool.
func (tr *busyTrial) release(j *busyJob) {
	j.released, j.end = true, tr.e.Now()
	if len(tr.queue) == 0 {
		tr.free++
		tr.toPool++
		return
	}
	tr.handOvers++
	next := tr.queue[0]
	tr.queue = tr.queue[1:]
	next.granted, next.start = true, tr.e.Now()
	if next.serve == 0 {
		tr.want = append(tr.want, next)
	}
}

// busy sums the unit holds: each from its grant to its release, an open
// hold up to now.
func (tr *busyTrial) busy() time.Duration {
	var sum time.Duration
	for _, j := range tr.jobs {
		switch {
		case j.released:
			sum += j.end - j.start
		case j.granted:
			sum += tr.e.Now() - j.start
		}
	}
	return sum
}

// held returns the TakeOn jobs holding a unit.
func (tr *busyTrial) held() []*busyJob {
	var out []*busyJob
	for _, j := range tr.jobs {
		if j.granted && !j.released && j.serve == 0 {
			out = append(out, j)
		}
	}
	return out
}

// act performs one random call or engine step and checks the result.
func (tr *busyTrial) act() {
	switch tr.rng.Intn(6) {
	case 0:
		j := tr.newJob(0)
		if got, want := tr.r.TakeOn(nil, busyGranted, j), tr.request(j); got != want {
			tr.t.Fatalf("job %d: TakeOn reported %v, the oracle %v", j.id, got, want)
		}
	case 1:
		// On the job's own node, continuing inline when granted.
		j := tr.newJob(0)
		got, want := tr.r.TakeOn(&j.wait, busyGranted, j), tr.request(j)
		if got != want {
			tr.t.Fatalf("job %d: TakeOn on its own node reported %v, the oracle %v", j.id, got, want)
		}
		if got {
			tr.want = append(tr.want, j)
			busyGranted(j)
		}
	case 2:
		if tr.handOff {
			return
		}
		j := tr.newJob(time.Duration(1+tr.rng.Intn(4)) * time.Microsecond)
		tr.request(j)
		tr.r.Serve(j.serve, func() {
			tr.served = append(tr.served, j)
			tr.trace = append(tr.trace, busyEvent{id: j.id, done: true, at: tr.e.Now()})
		})
	case 3:
		held := tr.held()
		if len(held) == 0 || tr.handOff && len(tr.queue) == 0 {
			return
		}
		before := tr.r.busy
		tr.r.Release()
		tr.release(held[tr.rng.Intn(len(held))])
		if tr.handOff && tr.r.busy != before {
			tr.t.Fatalf("a hand-over moved the busy sum from %v to %v", before, tr.r.busy)
		}
	case 4:
		tr.e.Schedule(time.Duration(tr.rng.Intn(3000)), func() {})
	default:
		tr.step()
	}
	tr.check()
}

// step runs one event and mirrors the Serve completion it ran, if any.
func (tr *busyTrial) step() bool {
	if !tr.e.Step() {
		return false
	}
	for _, j := range tr.served {
		if want := j.start + j.serve; tr.e.Now() != want {
			tr.t.Fatalf("job %d completed at %v, want %v", j.id, tr.e.Now(), want)
		}
		tr.release(j)
	}
	tr.served = tr.served[:0]
	return true
}

// check demands that exactly the waiters the oracle granted were called
// back, oldest first, and compares the readings when the trial reads.
func (tr *busyTrial) check() {
	if !reflect.DeepEqual(tr.called, tr.want) {
		tr.t.Fatalf("at %v: called back %v, the oracle granted %v", tr.e.Now(), ids(tr.called), ids(tr.want))
	}
	tr.called, tr.want = tr.called[:0], tr.want[:0]
	if tr.read {
		tr.compare("step")
	}
}

// compare checks Busy, Utilization, InUse and QueueLen against the
// oracle at the current instant.
func (tr *busyTrial) compare(where string) {
	tr.readings++
	now := tr.e.Now()
	busy := tr.busy()
	if got := tr.r.Busy(); got != busy {
		tr.t.Fatalf("%s at %v: Busy() = %v, the holds sum to %v", where, now, got, busy)
	}
	util := 0.0
	if total := time.Duration(tr.r.Capacity()) * now; total > 0 {
		util = float64(busy) / float64(total)
	}
	if got := tr.r.Utilization(); got != util {
		tr.t.Fatalf("%s at %v: Utilization() = %v, want %v", where, now, got, util)
	}
	if inUse := tr.r.Capacity() - tr.free; tr.r.InUse() != inUse || tr.r.QueueLen() != len(tr.queue) {
		tr.t.Fatalf("%s at %v: %d in use, %d queued; the oracle has %d, %d",
			where, now, tr.r.InUse(), tr.r.QueueLen(), inUse, len(tr.queue))
	}
}

// drain releases every held unit and runs every event.
func (tr *busyTrial) drain() {
	for {
		if held := tr.held(); len(held) > 0 {
			tr.r.Release()
			tr.release(held[0])
		} else if !tr.step() {
			break
		}
		tr.check()
	}
	if tr.r.InUse() != 0 || tr.r.QueueLen() != 0 {
		tr.t.Fatalf("drained resource has %d in use, %d queued", tr.r.InUse(), tr.r.QueueLen())
	}
}

// busyState is what a trial ends in.
type busyState struct {
	now              time.Duration
	processed        uint64
	busy             time.Duration
	credits, waiting int
	trace            []busyEvent
}

func (tr *busyTrial) state() busyState {
	return busyState{tr.e.Now(), tr.e.Processed(), tr.r.busy, tr.r.units.credits, tr.r.units.waiting, tr.trace}
}

func ids(jobs []*busyJob) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.id
	}
	return out
}

// TestBusyMatchesUnitHolds checks Busy and Utilization against a direct
// sum over unit holds, after every step and at probe boundaries, on
// random sequences of TakeOn (on recycled and on owned nodes), Serve
// and Release on resources of 1–4 units.  The same sequence run without reading must end in the
// same state, so a reading has no side effect.
func TestBusyMatchesUnitHolds(t *testing.T) {
	const acts = 3000
	for capacity := 1; capacity <= 4; capacity++ {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("cap=%d/seed=%d", capacity, seed), func(t *testing.T) {
				var ends [2]busyState
				for k, read := range []bool{true, false} {
					tr := newBusyTrial(t, seed, capacity, read, false)
					for i := 0; i < acts; i++ {
						tr.act()
					}
					tr.drain()
					if got, want := tr.r.Busy(), tr.busy(); got != want {
						t.Fatalf("drained: Busy() = %v, the holds sum to %v", got, want)
					}
					if read && (tr.handOvers == 0 || tr.toPool == 0 || tr.readings <= acts) {
						t.Fatalf("vacuous trial: %d hand-overs, %d returns to the pool, %d readings",
							tr.handOvers, tr.toPool, tr.readings)
					}
					ends[k] = tr.state()
				}
				if !reflect.DeepEqual(ends[0], ends[1]) {
					t.Errorf("reading changed the run: read %+v, unread %+v", ends[0], ends[1])
				}
			})
		}
	}
}

// TestBusyAcrossHandOvers runs a one-unit resource on which every
// release hands the unit to a waiter: the unit never returns to the
// pool, the busy sum never moves, and Busy is the whole time since the
// first grant.
func TestBusyAcrossHandOvers(t *testing.T) {
	tr := newBusyTrial(t, 11, 1, true, true)
	for i := 0; i < 3000; i++ {
		tr.act()
	}
	if tr.toPool != 0 || tr.handOvers < 100 {
		t.Fatalf("%d hand-overs and %d returns to the pool, want many and none", tr.handOvers, tr.toPool)
	}
	first := tr.jobs[0].start
	if got, want := tr.r.Busy(), tr.e.Now()-first; got != want {
		t.Errorf("Busy() = %v after only hand-overs, want the %v since the first grant", got, want)
	}
	tr.drain()
}

package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSemaphoreValidation(t *testing.T) {
	if _, err := NewSemaphore("x", 0); err == nil {
		t.Error("zero limit should be rejected")
	}
}

func TestSemaphoreImmediateAcquire(t *testing.T) {
	s, err := NewSemaphore("storage", 2)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	s.Acquire(func() { ran++ })
	s.Acquire(func() { ran++ })
	if ran != 2 || s.Available() != 0 {
		t.Errorf("ran=%d available=%d, want 2/0", ran, s.Available())
	}
}

func TestSemaphoreQueuesWhenEmpty(t *testing.T) {
	s, _ := NewSemaphore("storage", 1)
	order := []int{}
	s.Acquire(func() { order = append(order, 0) })
	s.Acquire(func() { order = append(order, 1) })
	s.Acquire(func() { order = append(order, 2) })
	if len(order) != 1 || s.Waiting() != 2 {
		t.Fatalf("order=%v waiting=%d", order, s.Waiting())
	}
	s.Release() // hands the credit to waiter 1
	s.Release() // hands the credit to waiter 2
	if len(order) != 3 {
		t.Fatalf("order=%v, want 3 entries", order)
	}
	for i, v := range order {
		if v != i {
			t.Errorf("FIFO violated: %v", order)
		}
	}
	if s.Waiting() != 0 || s.Available() != 0 {
		t.Errorf("waiting=%d available=%d after both hand-overs, want 0/0", s.Waiting(), s.Available())
	}
}

func TestSemaphoreReleaseAboveLimitPanics(t *testing.T) {
	s, _ := NewSemaphore("x", 1)
	defer func() {
		if recover() == nil {
			t.Error("over-release should panic")
		}
	}()
	s.Release()
}

func TestSemaphoreNilAcquirePanics(t *testing.T) {
	s, _ := NewSemaphore("x", 1)
	defer func() {
		if recover() == nil {
			t.Error("nil acquire fn should panic")
		}
	}()
	s.Acquire(nil)
}

// Property: after any valid sequence of acquire/release pairs, credits
// plus held equals the limit, and no waiter is lost.
func TestSemaphoreConservationProperty(t *testing.T) {
	f := func(limitRaw uint8, actions []bool) bool {
		limit := int(limitRaw)%5 + 1
		s, err := NewSemaphore("x", limit)
		if err != nil {
			return false
		}
		held, ran, queued := 0, 0, 0
		for _, acquire := range actions {
			if acquire {
				queued++
				s.Acquire(func() { ran++ })
			} else if held < ran {
				// Release something previously granted.
				s.Release()
				held++ // counts releases
			}
		}
		// All grants = releases so far + currently held credits.
		inUse := ran - held
		return s.Available() == limit-inUse && s.Waiting() == queued-ran
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTakeContract pins Take on a semaphore's credits and TakeOn on a
// resource's units, each on recycled nodes: a free credit is taken at
// once, reported true, and fn is not called; otherwise the take reports
// false and fn runs exactly once, at the hand-over, oldest waiter
// first.  Releasing past the limit still panics.
func TestTakeContract(t *testing.T) {
	s, err := NewSemaphore("s", 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewResource(New(), "r", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []struct {
		name    string
		take    func(func(any), any) bool
		release func()
	}{
		{"semaphore", s.Take, s.Release},
		{"resource", func(fn func(any), a any) bool { return r.TakeOn(nil, fn, a) }, r.Release},
	} {
		var ran []int
		record := func(a any) { ran = append(ran, a.(int)) }
		for i := 0; i < 2; i++ {
			if !u.take(record, i) {
				t.Errorf("%s: Take %d with a credit free reported false", u.name, i)
			}
		}
		for i := 2; i < 5; i++ {
			if u.take(record, i) {
				t.Errorf("%s: Take %d with no credit free reported true", u.name, i)
			}
		}
		if len(ran) != 0 {
			t.Fatalf("%s: Take called %v before any release", u.name, ran)
		}
		for i := 0; i < 5; i++ {
			u.release()
		}
		if want := []int{2, 3, 4}; !reflect.DeepEqual(ran, want) {
			t.Errorf("%s: hand-overs called %v, want %v", u.name, ran, want)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: over-release did not panic", u.name)
				}
			}()
			u.release()
		}()
	}
}

// TestTakeNilFuncPanicsWhenQueued pins the nil continuation: Take and
// TakeOn never call fn on a free credit, so a nil fn passes there, and
// panic when it would be queued; AcquireCall panics on a nil fn either
// way.
func TestTakeNilFuncPanicsWhenQueued(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	s, _ := NewSemaphore("s", 1)
	r, _ := NewResource(New(), "r", 1)
	if !s.Take(nil, nil) || !r.TakeOn(nil, nil, nil) {
		t.Fatal("Take(nil) with a credit free reported false")
	}
	mustPanic("Semaphore.Take(nil) with no credit free", func() { s.Take(nil, nil) })
	mustPanic("Resource.TakeOn(nil) with no unit free", func() { r.TakeOn(nil, nil, nil) })
	if s.Waiting() != 0 || r.QueueLen() != 0 {
		t.Errorf("a nil fn was queued: %d and %d waiting", s.Waiting(), r.QueueLen())
	}
	s2, _ := NewSemaphore("s2", 1)
	mustPanic("Semaphore.AcquireCall(nil) with a credit free", func() { s2.AcquireCall(nil, nil) })
	mustPanic("Semaphore.AcquireCall(nil) with no credit free", func() { s2.AcquireCall(nil, nil) })
}

// TestWaiterQueueMatchesFIFOOracle drives a semaphore's credits and a
// resource's units with random takes, half on caller-owned nodes and
// half on recycled ones, and releases interleaved, and checks every
// hand-over against a direct FIFO oracle: the queued job ids in arrival
// order.  A job handed a credit sometimes queues again at once on its
// own node, which is free by then.  Waiting and Available, or QueueLen
// and InUse, must match the oracle after every step.
func TestWaiterQueueMatchesFIFOOracle(t *testing.T) {
	type unit struct {
		name    string
		take    func(func(any), any) bool
		takeOn  func(*Waiter, func(any), any) bool
		release func()
		queued  func() int
		free    func() int
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		limit := 1 + rng.Intn(3)
		s, err := NewSemaphore("oracle", limit)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewResource(New(), "oracle", limit)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range []unit{
			{"semaphore", s.Take, s.TakeOn, s.Release, s.Waiting, s.Available},
			{"resource", func(fn func(any), a any) bool { return r.TakeOn(nil, fn, a) }, r.TakeOn, r.Release, r.QueueLen, func() int { return r.Capacity() - r.InUse() }},
		} {
			const jobs = 12
			nodes := make([]Waiter, jobs)
			waiting := make([]bool, jobs)
			var oracle []int // queued job ids, oldest first
			held := 0        // credits out
			var want int     // the job the next hand-over must reach
			var handed []int
			var take func(j int) bool
			var handOver func(a any)
			handOver = func(a any) {
				j := a.(int)
				handed = append(handed, j)
				waiting[j] = false
				if j != want {
					t.Fatalf("%s trial %d: handed to job %d, oracle says %d", u.name, trial, j, want)
				}
				if rng.Intn(4) == 0 {
					take(j)
				}
			}
			// take queues job j or hands it a free credit, following the
			// oracle, and reports whether the credit was free.
			take = func(j int) bool {
				var got bool
				if rng.Intn(2) == 0 {
					got = u.takeOn(&nodes[j], handOver, j)
				} else {
					got = u.take(handOver, j)
				}
				if wantFree := held < limit; got != wantFree {
					t.Fatalf("%s trial %d: take by job %d reported %v with %d of %d out", u.name, trial, j, got, held, limit)
				}
				if got {
					held++
				} else {
					waiting[j] = true
					oracle = append(oracle, j)
				}
				return got
			}
			for step := 0; step < 200; step++ {
				if rng.Intn(2) == 0 {
					j := rng.Intn(jobs)
					if !waiting[j] {
						take(j)
					}
				} else if held > 0 {
					if len(oracle) > 0 {
						want, oracle = oracle[0], oracle[1:]
						n := len(handed)
						u.release()
						if len(handed) != n+1 {
							t.Fatalf("%s trial %d: release made %d hand-overs, want 1", u.name, trial, len(handed)-n)
						}
					} else {
						held--
						u.release()
					}
				}
				if u.queued() != len(oracle) || u.free() != limit-held {
					t.Fatalf("%s trial %d step %d: %d queued and %d free, oracle %d and %d",
						u.name, trial, step, u.queued(), u.free(), len(oracle), limit-held)
				}
			}
		}
	}
}

// TestTakeOnQueuedNodePanics pins the one rule of caller-owned nodes: a
// node still in a queue cannot queue again, on the same semaphore or on
// another, and the failed take leaves both queues as they were.
func TestTakeOnQueuedNodePanics(t *testing.T) {
	a, _ := NewSemaphore("a", 1)
	b, _ := NewSemaphore("b", 1)
	a.Take(nil, nil)
	b.Take(nil, nil)
	var w Waiter
	noop := func(any) {}
	if a.TakeOn(&w, noop, nil) {
		t.Fatal("TakeOn with no credit free reported true")
	}
	for _, s := range []*Semaphore{a, b} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("queueing a queued node on %s did not panic", s.Name())
				}
			}()
			s.TakeOn(&w, noop, nil)
		}()
	}
	if a.Waiting() != 1 || b.Waiting() != 0 {
		t.Errorf("%d and %d waiting, want 1 and 0", a.Waiting(), b.Waiting())
	}
	// Once handed over, the node is free to queue anywhere.
	a.Release()
	if b.TakeOn(&w, noop, nil) || b.Waiting() != 1 {
		t.Errorf("the handed-over node did not queue on b: %d waiting", b.Waiting())
	}
}

package sim

import (
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

// TestTakeContract pins Take on a semaphore's credits and a resource's
// units: a free credit is taken at once, reported true, and fn is not
// called; otherwise Take reports false and fn runs exactly once, at the
// hand-over, oldest waiter first.  Releasing past the limit still
// panics.
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
		{"resource", r.Take, r.Release},
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

// TestTakeNilFuncPanicsWhenQueued pins the nil continuation: Take never
// calls fn on a free credit, so a nil fn passes there, and panics when
// it would be queued; AcquireCall panics on a nil fn either way.
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
	if !s.Take(nil, nil) || !r.Take(nil, nil) {
		t.Fatal("Take(nil) with a credit free reported false")
	}
	mustPanic("Semaphore.Take(nil) with no credit free", func() { s.Take(nil, nil) })
	mustPanic("Resource.Take(nil) with no unit free", func() { r.Take(nil, nil) })
	if s.Waiting() != 0 || r.QueueLen() != 0 {
		t.Errorf("a nil fn was queued: %d and %d waiting", s.Waiting(), r.QueueLen())
	}
	s2, _ := NewSemaphore("s2", 1)
	r2, _ := NewResource(New(), "r2", 1)
	mustPanic("Semaphore.AcquireCall(nil) with a credit free", func() { s2.AcquireCall(nil, nil) })
	mustPanic("Semaphore.AcquireCall(nil) with no credit free", func() { s2.AcquireCall(nil, nil) })
	mustPanic("Resource.AcquireCall(nil) with a unit free", func() { r2.AcquireCall(nil, nil) })
	mustPanic("Resource.AcquireCall(nil) with no unit free", func() { r2.AcquireCall(nil, nil) })
}

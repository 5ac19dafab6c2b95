package sim

import (
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

package sim

import (
	"errors"
	"fmt"
)

// Semaphore is a counting semaphore with a FIFO waiter queue, used for
// credit-based flow control (e.g. the per-link incoming storage cells of
// a T' node).  Unlike Resource it has no notion of service time: callers
// take and return credits explicitly.  It is also the waiter queue of
// every Resource, whose units are its credits.
type Semaphore struct {
	name    string
	nameFn  func() string
	credits int
	limit   int
	waiting ring[call]
}

// call is one queued continuation in the allocation-free (func(any),
// any) form of Engine.ScheduleCall: with fn a package-level function and
// arg a pointer to reusable state, queueing it captures no closure.
type call struct {
	fn  func(any)
	arg any
}

// runFunc adapts a plain func() continuation to the call form; a func
// value is pointer-shaped, so boxing it in arg allocates nothing.
func runFunc(a any) { a.(func())() }

// NewSemaphore creates a semaphore holding limit credits.
func NewSemaphore(name string, limit int) (*Semaphore, error) {
	return NewLazySemaphore(func() string { return name }, limit)
}

// NewLazySemaphore is NewSemaphore with deferred naming: name is called
// at most once, the first time the semaphore's name is actually needed.
// Builders that create one semaphore per mesh link use it to keep name
// formatting off the build path.
func NewLazySemaphore(name func() string, limit int) (*Semaphore, error) {
	s := new(Semaphore)
	if err := s.init(name, limit); err != nil {
		return nil, err
	}
	return s, nil
}

// init names the semaphore lazily and fills it with limit credits.  It
// is the one validation behind the semaphore and resource constructors.
func (s *Semaphore) init(name func() string, limit int) error {
	if name == nil {
		return errors.New("sim: lazy name needs a name function")
	}
	s.nameFn = name
	if limit < 1 {
		return fmt.Errorf("sim: %q needs at least 1 unit, got %d", s.Name(), limit)
	}
	s.credits, s.limit = limit, limit
	return nil
}

// Name returns the semaphore's name, resolving a lazy name on first use.
func (s *Semaphore) Name() string {
	if s.nameFn != nil {
		s.name = s.nameFn()
		s.nameFn = nil
	}
	return s.name
}

// Limit returns the total credit count.
func (s *Semaphore) Limit() int { return s.limit }

// Available returns the number of free credits.
func (s *Semaphore) Available() int { return s.credits }

// Waiting returns the number of queued acquirers.
func (s *Semaphore) Waiting() int { return s.waiting.len() }

// Acquire takes one credit, running fn immediately if a credit is free,
// otherwise queueing fn until Release provides one.
func (s *Semaphore) Acquire(fn func()) {
	if fn == nil {
		panic(fmt.Sprintf("sim: %q: nil acquire function", s.Name()))
	}
	s.AcquireCall(runFunc, fn)
}

// AcquireCall is Acquire in the call form: it runs fn(arg) once a credit
// is held.  With fn a package-level function and arg a pointer to
// reusable state it allocates nothing once the waiter queue has grown to
// its working size.
func (s *Semaphore) AcquireCall(fn func(any), arg any) {
	if fn == nil {
		panic(fmt.Sprintf("sim: %q: nil acquire function", s.Name()))
	}
	if s.credits > 0 {
		s.credits--
		fn(arg)
		return
	}
	*s.waiting.push() = call{fn, arg}
}

// Release returns one credit, handing it to the oldest waiter if any.
// Releasing a credit that was never taken panics: it indicates a broken
// model.
func (s *Semaphore) Release() {
	if s.waiting.len() > 0 {
		w := *s.waiting.front()
		s.waiting.pop()
		w.fn(w.arg)
		return
	}
	if s.credits >= s.limit {
		panic(fmt.Sprintf("sim: %q released more than acquired (limit %d)", s.Name(), s.limit))
	}
	s.credits++
}

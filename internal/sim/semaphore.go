package sim

import "fmt"

// Semaphore is a counting semaphore with a FIFO waiter queue, used for
// credit-based flow control (e.g. the per-link incoming storage cells of
// a T' node).  Unlike Resource it has no notion of service time: callers
// take and return credits explicitly.  It is also the waiter queue of
// every Resource, whose units are its credits.
//
// Its waiters queue on Waiter nodes linked through the nodes
// themselves, so the queue has no buffer to grow.  A caller that keeps
// a record per waiting job embeds a Waiter in it and queues with TakeOn;
// Take, AcquireCall and Acquire queue on nodes the semaphore recycles.
// Either way a hand-over allocates nothing once warm.
type Semaphore struct {
	name    string
	credits int
	limit   int
	// head and tail are the oldest and the newest waiter, and waiting
	// counts the queue, so Waiting is O(1).
	head, tail *Waiter
	waiting    int
	// spare lists the recycled nodes of Take's waiters.
	spare *Waiter
}

// Waiter is one place in a Semaphore's or a Resource's waiter queue: the
// continuation to run at the hand-over and the link to the next waiter.
// A record that waits in one queue at a time embeds one and queues on
// it with TakeOn, so waiting allocates nothing; the zero Waiter is
// ready to use.  A node must not be queued again before its hand-over
// has run.
type Waiter struct {
	call
	next *Waiter
	// recycled marks a node of the semaphore's own, which goes back to
	// its spare list at the hand-over.
	recycled bool
}

// call is one continuation in the allocation-free (func(any), any) form
// of Engine.ScheduleCall: with fn a package-level function and arg a
// pointer to reusable state, holding it captures no closure.
type call struct {
	fn  func(any)
	arg any
}

// runFunc adapts a plain func() continuation to the call form; a func
// value is pointer-shaped, so boxing it in arg allocates nothing.
func runFunc(a any) { a.(func())() }

// NewSemaphore creates a semaphore holding limit credits.
func NewSemaphore(name string, limit int) (*Semaphore, error) {
	s := new(Semaphore)
	if err := s.init(name, limit); err != nil {
		return nil, err
	}
	return s, nil
}

// init names the semaphore and fills it with limit credits.  It is the
// one validation behind the semaphore and resource constructors.
func (s *Semaphore) init(name string, limit int) error {
	s.name = name
	if limit < 1 {
		return fmt.Errorf("sim: %q needs at least 1 unit, got %d", name, limit)
	}
	s.credits, s.limit = limit, limit
	return nil
}

// Name returns the semaphore's name.
func (s *Semaphore) Name() string { return s.name }

// Limit returns the total credit count.
func (s *Semaphore) Limit() int { return s.limit }

// Available returns the number of free credits.
func (s *Semaphore) Available() int { return s.credits }

// Waiting returns the number of queued acquirers.
func (s *Semaphore) Waiting() int { return s.waiting }

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
// reusable state it allocates nothing once the semaphore has recycled
// as many nodes as it has had waiters at once.
func (s *Semaphore) AcquireCall(fn func(any), arg any) {
	if s.Take(fn, arg) {
		fn(arg)
	}
}

// Take takes a free credit and reports true without calling fn, so the
// caller continues inline.  With no credit free it queues fn(arg), on a
// node the semaphore recycles, to run when a Release hands one over,
// and reports false.  A nil fn panics when it would be queued.
func (s *Semaphore) Take(fn func(any), arg any) bool {
	if s.credits > 0 {
		s.credits--
		return true
	}
	s.wait(nil, fn, arg)
	return false
}

// TakeOn is Take queueing on the caller's node w, which the semaphore
// holds until the hand-over runs fn(arg); a nil w is Take's recycled
// node.  Queueing on a node that is already queued panics.
func (s *Semaphore) TakeOn(w *Waiter, fn func(any), arg any) bool {
	if s.credits > 0 {
		s.credits--
		return true
	}
	s.wait(w, fn, arg)
	return false
}

// wait queues fn(arg) on w, or on a recycled node when w is nil, behind
// the semaphore's other waiters.  It is kept out of TakeOn so that
// TakeOn stays small enough to inline.
func (s *Semaphore) wait(w *Waiter, fn func(any), arg any) {
	switch {
	case fn == nil:
		s.misuse("nil acquire function")
	case w == nil && s.spare != nil:
		w, s.spare = s.spare, s.spare.next
	case w == nil:
		w = &Waiter{recycled: true}
	case w.fn != nil:
		s.misuse("waiter queued twice")
	}
	w.call, w.next = call{fn, arg}, nil
	if s.head == nil {
		s.head = w
	} else {
		s.tail.next = w
	}
	s.tail = w
	s.waiting++
}

// misuse panics on a broken model.  It is kept out of wait so that
// wait's frame stays small.
func (s *Semaphore) misuse(what string) {
	panic(fmt.Sprintf("sim: %q: %s", s.Name(), what))
}

// Release returns one credit, handing it to the oldest waiter if any.
// The waiter's node is free again before its continuation runs, so the
// continuation may queue on it anew.  Releasing a credit that was never
// taken panics: it indicates a broken model.
func (s *Semaphore) Release() {
	if w := s.head; w != nil {
		s.head, s.waiting = w.next, s.waiting-1
		c := w.call
		w.call = call{}
		if w.recycled {
			w.next, s.spare = s.spare, w
		}
		c.fn(c.arg)
		return
	}
	if s.credits >= s.limit {
		panic(fmt.Sprintf("sim: %q released more than acquired (limit %d)", s.Name(), s.limit))
	}
	s.credits++
}

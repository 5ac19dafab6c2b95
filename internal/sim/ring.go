package sim

// ring is the package's one FIFO: a growable ring buffer whose capacity
// is a power of two.  push appends at the tail, front reads the oldest
// element and pop removes it, all O(1).  No element moves except when
// the buffer doubles, so a ring that has grown to its working size
// allocates nothing.  The engine keeps one ring of events per distinct
// delay, and every Semaphore keeps its waiters in one.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // element count
}

// minRing is the capacity of a ring's first buffer.
const minRing = 4

// len returns the number of queued elements.
func (r *ring[T]) len() int { return r.n }

// push appends a zero element at the tail, doubling the buffer when it
// is full, and returns it for the caller to fill in place.  Filling
// fields through the pointer stores each word once; copying in an
// element as large as an event would go through a stack temporary.
func (r *ring[T]) push() *T {
	if r.n == len(r.buf) {
		r.grow()
	}
	p := &r.buf[(r.head+r.n)&(len(r.buf)-1)]
	r.n++
	return p
}

// front returns the oldest element in place; the ring must not be
// empty.
func (r *ring[T]) front() *T { return &r.buf[r.head] }

// pop removes the oldest element; the ring must not be empty.  Read it
// through front first.  The vacated cell is zeroed, so push always
// hands out a zero element and the ring keeps no reference to a
// continuation or argument that has already run.
func (r *ring[T]) pop() {
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// grow doubles the buffer, unrolling the queued elements to its start.
func (r *ring[T]) grow() {
	buf := make([]T, max(2*len(r.buf), minRing))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark was built on is shared, and its speed drifts
// by up to a factor of two over tens of seconds.  The drift hits
// allocation- and GC-heavy code hardest, which is what the simulator
// is.  So every timed op is also expressed in units of a reference: a
// fixed loop of the benchmark's own that allocates, links and walks
// small heap nodes, timed right before and right after the op.  The
// program never runs it, so a change to the program cannot move it;
// only the machine can.

// refNodes is how many nodes the reference loop allocates, split over
// its goroutines: about 75 ms on one goroutine of a 2-CPU Xeon when the
// host is quiet.
const refNodes = 1 << 21

// refBatch is how many nodes stay linked before the list is walked and
// dropped, so the live heap stays small and the loop is dominated by
// allocation and collection.
const refBatch = 4096

type refNode struct {
	next *refNode
	val  [6]uint64
}

var refSink atomic.Uint64

// timeRefLoop runs the reference loop split over the given number of
// goroutines, as many as the workload keeps busy, and returns its wall
// time in seconds.
func timeRefLoop(goroutines int) float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var head *refNode
			var sum uint64
			for i := 0; i < refNodes/goroutines; i++ {
				head = &refNode{next: head, val: [6]uint64{uint64(i)}}
				if i%refBatch == refBatch-1 {
					for p := head; p != nil; p = p.next {
						sum += p.val[0]
					}
					head = nil
				}
			}
			refSink.Add(sum)
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

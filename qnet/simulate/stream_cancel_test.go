package simulate

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestStreamCancelMidSweep cancels a streaming sweep after its first
// delivered point and asserts the channel closes promptly and the
// worker goroutines exit (no leak).  Run under -race in CI.
func TestStreamCancelMidSweep(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	space := test2x2x2Space(t) // 8 points, enough to be mid-sweep after one
	total := space.Size()
	ch, err := Stream(ctx, space, allIndices(total), nil, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if total != 8 {
		t.Fatalf("total = %d, want 8", total)
	}

	select {
	case _, ok := <-ch:
		if !ok {
			t.Fatal("channel closed before any point")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no point delivered")
	}
	cancel()

	// The channel must close promptly; a few in-flight points may
	// still arrive (simulations that finished before their worker saw
	// the cancellation), but never all of them.
	deadline := time.After(30 * time.Second)
	got := 1
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				if got == total {
					t.Fatalf("cancellation delivered all %d points", total)
				}
				goto closed
			}
			got++
		case <-deadline:
			t.Fatal("channel did not close after cancellation")
		}
	}
closed:

	// Every sweep goroutine (feeder, workers, closer) must exit; poll
	// because the closer legitimately trails the channel close.
	for wait := time.Duration(0); ; wait += 10 * time.Millisecond {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if wait > 10*time.Second {
			t.Fatalf("goroutine leak after cancelled Stream: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

package sim

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestRunContextCompletes(t *testing.T) {
	e := New()
	var ran int
	for i := 0; i < 10; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, func() { ran++ })
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := e.Processed(); n != 10 || ran != 10 {
		t.Errorf("ran %d events (counter %d), want 10", n, ran)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	e := New()
	e.Schedule(time.Microsecond, func() { t.Error("event ran despite cancelled context") })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := e.Processed(); n != 0 {
		t.Errorf("executed %d events under a cancelled context", n)
	}
	if e.pending != 1 {
		t.Errorf("pending = %d, want 1 (engine left intact)", e.pending)
	}
}

// TestRunContextCancelMidRun schedules a self-perpetuating event chain
// and cancels from within it; the loop must stop at the next check
// instead of running forever.
func TestRunContextCancelMidRun(t *testing.T) {
	e := New()
	ctx, cancel := context.WithCancel(context.Background())
	var scheduled func()
	count := 0
	scheduled = func() {
		count++
		if count == 10000 {
			cancel()
		}
		e.Schedule(time.Nanosecond, scheduled)
	}
	e.Schedule(0, scheduled)
	err := e.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if count < 10000 || count > 10000+ctxCheckInterval {
		t.Errorf("stopped after %d events; want within one check interval of 10000", count)
	}
}

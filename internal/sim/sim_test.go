package sim

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// run drives e until no event remains, failing t if the run is cut
// short.
func run(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(30*time.Microsecond, func() { order = append(order, 3) })
	e.Schedule(10*time.Microsecond, func() { order = append(order, 1) })
	e.Schedule(20*time.Microsecond, func() { order = append(order, 2) })
	run(t, e)
	if n := e.Processed(); n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("execution order %v, want [1 2 3]", order)
		}
	}
	if e.Now() != 30*time.Microsecond {
		t.Errorf("clock = %v, want 30µs", e.Now())
	}
}

func TestEngineFIFOForSimultaneousEvents(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*time.Microsecond, func() { order = append(order, i) })
	}
	run(t, e)
	if !sort.IntsAreSorted(order) {
		t.Errorf("simultaneous events ran out of scheduling order: %v", order)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	var hits []time.Duration
	e.Schedule(time.Microsecond, func() {
		hits = append(hits, e.Now())
		e.Schedule(2*time.Microsecond, func() {
			hits = append(hits, e.Now())
		})
	})
	run(t, e)
	if len(hits) != 2 || hits[0] != time.Microsecond || hits[1] != 3*time.Microsecond {
		t.Errorf("nested event times %v, want [1µs 3µs]", hits)
	}
}

func TestEngineNegativeDelayClampsToNow(t *testing.T) {
	e := New()
	ran := false
	e.Schedule(time.Millisecond, func() {
		e.Schedule(-time.Second, func() { ran = true })
	})
	run(t, e)
	if !ran {
		t.Error("negative-delay event never ran")
	}
	if e.Now() != time.Millisecond {
		t.Errorf("clock = %v, want 1ms", e.Now())
	}
}

func TestEnginePanicsOnNilFunc(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("nil event function should panic")
		}
	}()
	e.Schedule(0, nil)
}

func TestEngineProcessedCount(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.Schedule(0, func() {})
	}
	run(t, e)
	if e.Processed() != 7 {
		t.Errorf("processed = %d, want 7", e.Processed())
	}
}

// Property: regardless of insertion order, events run sorted by time.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var ran []time.Duration
		for _, d := range delays {
			e.Schedule(time.Duration(d)*time.Nanosecond, func() {
				ran = append(ran, e.Now())
			})
		}
		run(t, e)
		if len(ran) != len(delays) {
			return false
		}
		for i := 1; i < len(ran); i++ {
			if ran[i] < ran[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResourceValidation(t *testing.T) {
	e := New()
	if _, err := NewResource(nil, "x", 1); err == nil {
		t.Error("nil engine should be rejected")
	}
	if _, err := NewResource(e, "x", 0); err == nil {
		t.Error("zero capacity should be rejected")
	}
}

func TestResourceServesUpToCapacity(t *testing.T) {
	e := New()
	r, err := NewResource(e, "teleporters", 2)
	if err != nil {
		t.Fatal(err)
	}
	var done []time.Duration
	for i := 0; i < 4; i++ {
		r.Serve(10*time.Microsecond, func() { done = append(done, e.Now()) })
	}
	run(t, e)
	want := []time.Duration{10 * time.Microsecond, 10 * time.Microsecond, 20 * time.Microsecond, 20 * time.Microsecond}
	if len(done) != len(want) {
		t.Fatalf("completed %d jobs, want %d", len(done), len(want))
	}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("job %d finished at %v, want %v", i, done[i], want[i])
		}
	}
}

func TestResourceFIFO(t *testing.T) {
	e := New()
	r, _ := NewResource(e, "gen", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		r.Serve(time.Microsecond, func() { order = append(order, i) })
	}
	run(t, e)
	if !sort.IntsAreSorted(order) {
		t.Errorf("jobs completed out of FIFO order: %v", order)
	}
}

func TestResourceReleasePanicsWhenIdle(t *testing.T) {
	e := New()
	r, _ := NewResource(e, "x", 1)
	defer func() {
		if recover() == nil {
			t.Error("Release without Acquire should panic")
		}
	}()
	r.Release()
}

func TestResourceStatsAndUtilization(t *testing.T) {
	e := New()
	r, _ := NewResource(e, "x", 2)
	for i := 0; i < 4; i++ {
		r.Serve(10*time.Microsecond, nil)
	}
	run(t, e)
	if want := 40 * time.Microsecond; r.Busy() != want {
		t.Errorf("busy time = %v, want %v", r.Busy(), want)
	}
	// 2 units × 20µs elapsed = 40µs of unit-time, all busy.
	if u := r.Utilization(); u < 0.99 || u > 1.01 {
		t.Errorf("utilization = %g, want ~1", u)
	}
}

func TestResourceUtilizationZeroTime(t *testing.T) {
	e := New()
	r, _ := NewResource(e, "x", 1)
	if u := r.Utilization(); u != 0 {
		t.Errorf("utilization with no elapsed time = %g, want 0", u)
	}
}

// Property: with capacity c and n identical jobs of duration d, the last
// completion happens at ceil(n/c)*d.
func TestResourceThroughputProperty(t *testing.T) {
	f := func(cRaw, nRaw uint8) bool {
		c := int(cRaw)%8 + 1
		n := int(nRaw)%50 + 1
		e := New()
		r, err := NewResource(e, "x", c)
		if err != nil {
			return false
		}
		var last time.Duration
		for i := 0; i < n; i++ {
			r.Serve(time.Microsecond, func() { last = e.Now() })
		}
		run(t, e)
		batches := (n + c - 1) / c
		return last == time.Duration(batches)*time.Microsecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTally(t *testing.T) {
	var ta Tally
	if ta.Mean() != 0 || ta.Count() != 0 {
		t.Error("empty tally should be zero")
	}
	for _, x := range []float64{3, 1, 4, 1, 5} {
		ta.Add(x)
	}
	if ta.Count() != 5 || ta.Max() != 5 {
		t.Errorf("count=%d max=%g", ta.Count(), ta.Max())
	}
	if m := ta.Mean(); m != 2.8 {
		t.Errorf("mean=%g, want 2.8", m)
	}
}

func TestTallyRandomizedAgainstDirectComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ta Tally
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()
		xs = append(xs, x)
		ta.Add(x)
	}
	sum, max := 0.0, xs[0]
	for _, x := range xs {
		sum += x
		if x > max {
			max = x
		}
	}
	if ta.Mean() != sum/float64(len(xs)) || ta.Max() != max {
		t.Error("tally disagrees with direct computation")
	}
}

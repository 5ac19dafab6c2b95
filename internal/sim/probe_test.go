package sim

import (
	"reflect"
	"testing"
	"time"
)

// recProbe records every Sample call for inspection and asks for the
// boundary next returns.
type recProbe struct {
	times  []time.Duration
	events []uint64
	next   func(now time.Duration) time.Duration
}

func (p *recProbe) Sample(now time.Duration, processed uint64) time.Duration {
	p.times = append(p.times, now)
	p.events = append(p.events, processed)
	return p.next(now)
}

// every returns a recProbe that samples at each multiple of interval.
func every(interval time.Duration) *recProbe {
	return &recProbe{next: func(now time.Duration) time.Duration { return now + interval }}
}

// mustPanic reports whether fn panicked.
func mustPanic(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// TestSetProbeRejectsBadInterval pins the first-boundary contract: a
// probe's first boundary must be later than the clock, and a nil probe
// removes the hook.
func TestSetProbeRejectsBadInterval(t *testing.T) {
	for _, first := range []time.Duration{0, -time.Microsecond} {
		if !mustPanic(func() { New().SetProbe(every(time.Microsecond), first) }) {
			t.Errorf("SetProbe(probe, %v) at time 0 did not panic", first)
		}
	}
	e := New()
	e.Schedule(5*time.Microsecond, func() {})
	e.Step()
	if !mustPanic(func() { e.SetProbe(every(time.Microsecond), 5*time.Microsecond) }) {
		t.Error("SetProbe at the clock's own time did not panic")
	}
	// Removal never needs a boundary.
	e = New()
	e.SetProbe(every(time.Microsecond), time.Microsecond)
	e.SetProbe(nil, 0)
	e.Schedule(5*time.Microsecond, func() {})
	for e.Step() {
	}
}

// TestProbeSamplesExactBoundaries pins the sampling instants: every
// multiple of the interval the clock crosses is sampled exactly once,
// in order, before the event that crosses it executes — including
// catch-up across quiet gaps spanning several boundaries.
func TestProbeSamplesExactBoundaries(t *testing.T) {
	e := New()
	p := every(10 * time.Microsecond)
	e.SetProbe(p, 10*time.Microsecond)
	for _, at := range []time.Duration{3, 12, 25, 47} {
		e.Schedule(at*time.Microsecond, func() {})
	}
	for e.Step() {
	}

	wantTimes := []time.Duration{10, 20, 30, 40}
	for i := range wantTimes {
		wantTimes[i] *= time.Microsecond
	}
	if !reflect.DeepEqual(p.times, wantTimes) {
		t.Errorf("sample times = %v, want %v", p.times, wantTimes)
	}
	// Each sample sees the events processed strictly before its
	// boundary: 1 event (t=3µs) before 10µs, 2 before 20µs, 3 before
	// both 30µs and 40µs (the catch-up pair of the 25→47µs gap).
	if want := []uint64{1, 2, 3, 3}; !reflect.DeepEqual(p.events, want) {
		t.Errorf("sample event counts = %v, want %v", p.events, want)
	}
	if e.Processed() != 4 {
		t.Errorf("processed %d events, want 4 (the probe must not add any)", e.Processed())
	}
	if e.Now() != 47*time.Microsecond {
		t.Errorf("final clock %v, want 47µs", e.Now())
	}
}

// TestProbeFollowsReturnedBoundaries pins the boundary hand-off: each
// sample fires exactly at the boundary the previous one returned, here
// growing gaps of 10, 20, 40 and 80µs, before the event that crosses
// it, with one call per boundary across a quiet gap, and the clock
// reads each boundary during its sample.
func TestProbeFollowsReturnedBoundaries(t *testing.T) {
	e := New()
	var clocks []time.Duration
	p := &recProbe{next: func(now time.Duration) time.Duration {
		clocks = append(clocks, e.Now())
		return 2*now + 10*time.Microsecond
	}}
	e.SetProbe(p, 10*time.Microsecond)
	for _, at := range []time.Duration{3, 12, 30, 31, 160} {
		e.Schedule(at*time.Microsecond, func() {})
	}
	for e.Step() {
	}

	want := []time.Duration{10, 30, 70, 150}
	for i := range want {
		want[i] *= time.Microsecond
	}
	if !reflect.DeepEqual(p.times, want) {
		t.Errorf("sample times = %v, want %v", p.times, want)
	}
	if !reflect.DeepEqual(clocks, want) {
		t.Errorf("clock during each sample = %v, want %v", clocks, want)
	}
	// The event at exactly 30µs runs after the 30µs sample; the 70µs and
	// 150µs samples are the catch-up pair of the 31→160µs gap.
	if want := []uint64{1, 2, 4, 4}; !reflect.DeepEqual(p.events, want) {
		t.Errorf("sample event counts = %v, want %v", p.events, want)
	}
	if e.Processed() != 5 || e.Now() != 160*time.Microsecond {
		t.Errorf("processed %d events to %v, want 5 to 160µs", e.Processed(), e.Now())
	}
}

// TestProbeRejectsStaleBoundary pins that a probe asking for a boundary
// no later than the one it is sampling panics rather than spinning.
func TestProbeRejectsStaleBoundary(t *testing.T) {
	for _, back := range []time.Duration{0, time.Microsecond} {
		e := New()
		e.SetProbe(&recProbe{next: func(now time.Duration) time.Duration { return now - back }}, 10*time.Microsecond)
		e.Schedule(20*time.Microsecond, func() {})
		if !mustPanic(func() { e.Step() }) {
			t.Errorf("a probe returning now-%v did not panic", back)
		}
	}
}

// TestProbeAttachMidRun pins the first-boundary rule: a probe attached
// mid-run first samples at the boundary SetProbe names, never in the
// past.
func TestProbeAttachMidRun(t *testing.T) {
	e := New()
	e.Schedule(25*time.Microsecond, func() {})
	for e.Step() {
	}
	p := every(10 * time.Microsecond)
	e.SetProbe(p, 30*time.Microsecond)
	e.Schedule(10*time.Microsecond, func() {}) // at t=35µs
	for e.Step() {
	}
	if want := []time.Duration{30 * time.Microsecond}; !reflect.DeepEqual(p.times, want) {
		t.Errorf("sample times = %v, want %v", p.times, want)
	}
}

// TestProbeDoesNotAlterExecution pins the observer property at the
// engine level: an identical model runs the identical event sequence —
// same order, same clock readings, same processed count — with and
// without a probe attached.
func TestProbeDoesNotAlterExecution(t *testing.T) {
	run := func(probe bool) (order []int, clocks []time.Duration, processed uint64) {
		e := New()
		if probe {
			e.SetProbe(every(7*time.Microsecond), 7*time.Microsecond)
		}
		delays := []time.Duration{11, 3, 29, 17, 3, 23}
		for i, d := range delays {
			i, d := i, d
			e.Schedule(d*time.Microsecond, func() {
				order = append(order, i)
				clocks = append(clocks, e.Now())
				if i == 1 {
					// Nested scheduling from inside an event, as models do.
					e.Schedule(10*time.Microsecond, func() {
						order = append(order, 100)
						clocks = append(clocks, e.Now())
					})
				}
			})
		}
		for e.Step() {
		}
		return order, clocks, e.Processed()
	}

	plainOrder, plainClocks, plainN := run(false)
	tracedOrder, tracedClocks, tracedN := run(true)
	if !reflect.DeepEqual(plainOrder, tracedOrder) {
		t.Errorf("event order diverged: %v vs %v", plainOrder, tracedOrder)
	}
	if !reflect.DeepEqual(plainClocks, tracedClocks) {
		t.Errorf("event clocks diverged: %v vs %v", plainClocks, tracedClocks)
	}
	if plainN != tracedN {
		t.Errorf("processed %d vs %d events", plainN, tracedN)
	}
}

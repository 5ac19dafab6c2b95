package simulate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/qnet"
	"repro/qnet/fault"
	"repro/qnet/trace"
)

// encodeTrace serializes a tracer's export for byte-level comparison.
func encodeTrace(t *testing.T, tr *trace.Tracer) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Export().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// tracedBaseOptions is the shared configuration of the trace tests: a
// nonzero drop spec so the run records drop/resend events, and a fixed
// seed so reruns are comparable.
func tracedBaseOptions() []Option {
	return []Option{
		WithResources(16, 16, 8),
		WithFaults(fault.Spec{Drop: 0.05}),
		WithSeed(11),
	}
}

// TestTraceObserverParity pins the tentpole's correctness contract: a
// traced run executes the same events as an untraced one and returns a
// byte-identical Result — the tracer is an observer, never a model
// change — while still recording a non-trivial time series.
func TestTraceObserverParity(t *testing.T) {
	grid := testGrid(t, 5)
	prog := qnet.QFT(grid.Tiles())
	m, err := New(grid, HomeBase, tracedBaseOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	tr := trace.New(trace.Config{Interval: time.Millisecond})
	got, err := m.WithTrace(tr).Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("traced result diverged:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	ex := tr.Export()
	if ex.TotalSamples == 0 {
		t.Error("traced run recorded no samples")
	}
	if ex.TotalDrops+ex.TotalResends == 0 {
		t.Error("traced run under a drop spec recorded no drop/resend events")
	}
}

// tracedQFT25 is the tracer benchmark's run: a 5x5 MobileQubit QFT-25
// at t=g=16, p=8, about 485 ms of simulated time and 71,576 events.
func tracedQFT25(t *testing.T) (*Machine, qnet.Program) {
	t.Helper()
	grid := testGrid(t, 5)
	m, err := New(grid, MobileQubit, WithResources(16, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	return m, qnet.QFT(grid.Tiles())
}

// TestTraceCoversWholeRun pins that a trace at the default interval
// covers the whole run in bounded memory: the series starts at its
// first interval, steps by the (doubled) interval, ends within one
// interval of Exec and never holds more than Capacity samples.
func TestTraceCoversWholeRun(t *testing.T) {
	m, prog := tracedQFT25(t)
	tr := trace.New(trace.Config{})
	res, err := m.WithTrace(tr).Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	ex := tr.Export()
	n, iv := len(ex.Times), ex.IntervalNS
	if n == 0 || n > trace.DefaultCapacity || 2*n < trace.DefaultCapacity {
		t.Fatalf("%d samples, want between %d and %d", n, trace.DefaultCapacity/2, trace.DefaultCapacity)
	}
	if iv <= int64(trace.DefaultInterval) {
		t.Errorf("interval %v, want the default doubled for a %v run", time.Duration(iv), res.Exec)
	}
	if ex.Times[0] != iv {
		t.Errorf("first sample at %v, want the interval %v", time.Duration(ex.Times[0]), time.Duration(iv))
	}
	for i := 1; i < n; i++ {
		if ex.Times[i]-ex.Times[i-1] != iv {
			t.Fatalf("samples %d and %d are %v apart, want %v", i-1, i, time.Duration(ex.Times[i]-ex.Times[i-1]), time.Duration(iv))
		}
	}
	if last := time.Duration(ex.Times[n-1]); last > res.Exec || res.Exec-last >= time.Duration(iv) {
		t.Errorf("last sample at %v, want within one %v interval of Exec %v", last, time.Duration(iv), res.Exec)
	}
	if ex.Events[n-1] == 0 || ex.Events[n-1] > res.Events {
		t.Errorf("last sample saw %d events of %d", ex.Events[n-1], res.Events)
	}
}

// TestTraceExportDeterministic pins the export's reproducibility: the
// same configuration traced twice yields byte-identical exports — the
// probe fires at the same simulated instants on every run.
func TestTraceExportDeterministic(t *testing.T) {
	grid := testGrid(t, 5)
	prog := qnet.QFT(grid.Tiles())
	base := tracedBaseOptions()

	runTraced := func() string {
		t.Helper()
		m, err := New(grid, HomeBase, base...)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New(trace.Config{Interval: time.Millisecond})
		if _, err := m.WithTrace(tr).Run(context.Background(), prog); err != nil {
			t.Fatal(err)
		}
		return encodeTrace(t, tr)
	}

	first := runTraced()
	if second := runTraced(); second != first {
		t.Error("rerun of the same traced configuration changed the export bytes")
	}
}

// TestTraceExcludedFromCacheKey pins the cache contract: a tracer
// never changes the result, so it never changes the content address.
func TestTraceExcludedFromCacheKey(t *testing.T) {
	grid := testGrid(t, 4)
	prog := qnet.QFT(grid.Tiles())
	plain, err := New(grid, HomeBase)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{})
	if plain.WithTrace(tr).CacheKey(prog) != plain.CacheKey(prog) {
		t.Error("Machine.WithTrace changed the cache key")
	}
	viaOption, err := New(grid, HomeBase, WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if viaOption.CacheKey(prog) != plain.CacheKey(prog) {
		t.Error("WithTrace option changed the cache key")
	}
	if viaOption.Trace() != tr {
		t.Error("WithTrace option did not attach the tracer")
	}
}

// TestTraceBypassesCacheReadButStores pins the traced run's cache
// behavior: it never answers from the cache (a stored Result has no
// time series for the tracer to observe) but still stores its result,
// so a later untraced run of the same configuration is a pure hit.
func TestTraceBypassesCacheReadButStores(t *testing.T) {
	grid := testGrid(t, 4)
	prog := qnet.QFT(grid.Tiles())
	cache := NewCache(0)
	m, err := New(grid, HomeBase, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}

	tr := trace.New(trace.Config{Interval: time.Millisecond})
	want, err := m.WithTrace(tr).Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Export().TotalSamples == 0 {
		t.Fatal("cold traced run did not simulate")
	}
	got, err := m.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("untraced run did not return the traced run's stored result")
	}
	if s := cache.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Errorf("cache traffic %+v, want exactly the untraced run's hit on the traced run's entry", s)
	}

	// A warm cache must not stop a traced run from simulating: the
	// tracer needs the events, not the answer.
	tr2 := trace.New(trace.Config{Interval: time.Millisecond})
	if _, err := m.WithTrace(tr2).Run(context.Background(), prog); err != nil {
		t.Fatal(err)
	}
	if tr2.Export().TotalSamples == 0 {
		t.Error("warm-cache traced run answered from the cache instead of simulating")
	}
	if s := cache.Stats(); s.Hits != 1 {
		t.Errorf("warm-cache traced run touched the read path: %+v", s)
	}
}

// TestTraceCancelNoLeak cancels traced runs mid-flight and requires Run
// to return promptly without leaking goroutines — the tracer adds no
// teardown of its own, so a probed run must stop on cancellation
// exactly as an unprobed one does.
func TestTraceCancelNoLeak(t *testing.T) {
	grid := testGrid(t, 8)
	prog := qnet.QFT(grid.Tiles())
	m, err := New(grid, HomeBase, WithResources(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(i) * 2 * time.Millisecond)
			cancel()
		}()
		done := make(chan error, 1)
		go func() {
			tr := trace.New(trace.Config{Interval: time.Millisecond})
			_, err := m.WithTrace(tr).Run(ctx, prog)
			done <- err
		}()
		select {
		case err := <-done:
			// A fast machine may finish before the cancel lands; all
			// that matters is that it returns.
			_ = err
		case <-time.After(10 * time.Second):
			t.Fatal("cancelled traced run did not return")
		}
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines grew from %d to %d after cancelled traced runs", before, now)
	}
}

// TestTraceSharedBySweepIsConfigError pins that a tracer attached
// through Space.Options is a configuration error: every point's machine
// would get the same Tracer, which records one run at a time, so sweep
// workers would race on it.  Sweep and Stream both refuse before any
// point runs, and the error names the per-point form.
func TestTraceSharedBySweepIsConfigError(t *testing.T) {
	grid := testGrid(t, 3)
	tr := trace.New(trace.Config{})
	space := Space{
		Grids:   []qnet.Grid{grid},
		Layouts: []Layout{HomeBase, MobileQubit},
		Resources: []Resources{
			{Teleporters: 16, Generators: 16, Purifiers: 16},
			{Teleporters: 16, Generators: 16, Purifiers: 8},
		},
		Programs: []qnet.Program{qnet.QFT(grid.Tiles())},
		Options:  []Option{WithTrace(tr)},
	}
	check := func(name string, err error) {
		t.Helper()
		var ce *qnet.ConfigError
		if !errors.As(err, &ce) || ce.Field != "Space.Options" {
			t.Fatalf("%s: err = %v, want a *qnet.ConfigError on Space.Options", name, err)
		}
		for _, want := range []string{"Space.Machine(pt)", "Machine.WithTrace"} {
			if !strings.Contains(ce.Error(), want) {
				t.Errorf("%s: error %q does not name %s", name, ce, want)
			}
		}
	}
	points, err := Sweep(context.Background(), space, WithWorkers(4))
	if points != nil {
		t.Errorf("Sweep returned %d points", len(points))
	}
	check("Sweep", err)
	ch, err := Stream(context.Background(), space, allIndices(space.Size()), nil, WithWorkers(4))
	if ch != nil {
		t.Errorf("Stream returned a channel for %d points", space.Size())
	}
	check("Stream", err)
	if n := tr.Samples(); n != 0 {
		t.Errorf("the shared tracer took %d samples", n)
	}
}

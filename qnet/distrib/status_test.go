package distrib

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// executeShard runs one shard on the worker, discarding results.
func executeShard(t *testing.T, w *Worker, indices []int) {
	t.Helper()
	spec := testSpec(t)
	err := w.Execute(context.Background(), Job{Space: spec, Indices: indices}, func(PointResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorkerStatusProgressCounters pins the always-on half of Status:
// DonePoints counts every finished point across shards, and
// ActivePoints drains back to zero, telemetry or not.
func TestWorkerStatusProgressCounters(t *testing.T) {
	w := NewWorker(WithWorkerParallelism(2))
	if st := w.Status(); st != (Status{}) {
		t.Fatalf("fresh worker status %+v, want zero", st)
	}
	executeShard(t, w, []int{0, 1, 2})
	if st := w.Status(); st.DonePoints != 3 || st.ActivePoints != 0 {
		t.Errorf("after one shard: %+v, want 3 done, 0 active", st)
	}
	executeShard(t, w, []int{3, 4})
	if st := w.Status(); st.DonePoints != 5 {
		t.Errorf("after two shards: %+v, want 5 done", st)
	}
	// Without telemetry there are no tracers to aggregate.
	if st := w.Status(); st.Events != 0 || st.EventRate != 0 || st.Occupancy != 0 {
		t.Errorf("telemetry-off worker reports telemetry: %+v", st)
	}
}

// TestWorkerTelemetryObserverParity pins that a telemetry-on worker
// emits point results identical to a telemetry-off one: the per-point
// tracer is an observer, so mixed fleets stay consistent.
func TestWorkerTelemetryObserverParity(t *testing.T) {
	spec := testSpec(t)
	execute := func(w *Worker) map[int]PointResult {
		var mu sync.Mutex
		got := make(map[int]PointResult)
		err := w.Execute(context.Background(), Job{Space: spec, Indices: []int{0, 3, 6}}, func(pr PointResult) error {
			mu.Lock()
			defer mu.Unlock()
			got[pr.Index] = pr
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	plain := execute(NewWorker())
	traced := execute(NewWorker(WithWorkerTelemetry(time.Millisecond)))
	if len(traced) != len(plain) {
		t.Fatalf("telemetry worker emitted %d points, plain %d", len(traced), len(plain))
	}
	for idx, want := range plain {
		if got := traced[idx]; got != want {
			t.Errorf("index %d: telemetry %+v, plain %+v", idx, got, want)
		}
	}
}

// TestLoopbackStatus pins the loopback transport's Status routing: a
// live worker's snapshot comes through, and an unknown name and a dead
// worker are errors.
func TestLoopbackStatus(t *testing.T) {
	lb := NewLoopback()
	w := NewWorker()
	lb.Add("w0", w)
	executeShard(t, w, []int{0, 1})

	st, err := lb.Status(context.Background(), "w0")
	if err != nil {
		t.Fatal(err)
	}
	if st.DonePoints != 2 {
		t.Errorf("loopback status %+v, want 2 done", st)
	}
	if _, err := lb.Status(context.Background(), "nosuch"); err == nil {
		t.Error("unknown worker reported a status")
	}
	lb.Add("w1", NewWorker())
	lb.Kill("w1")
	if _, err := lb.Status(context.Background(), "w1"); err == nil {
		t.Error("dead worker reported a status")
	}
}

// TestCoordinatorProgressCallback pins the heartbeat's progress path: a
// sweep with WithHeartbeat and WithProgress observes per-worker live
// snapshots while shards execute, and the final callbacks carry the
// worker's cumulative point count.
func TestCoordinatorProgressCallback(t *testing.T) {
	spec := testSpec(t)
	lb := NewLoopback()
	lb.Add("w0", NewWorker(WithWorkerParallelism(1), WithWorkerTelemetry(time.Millisecond)))

	var mu sync.Mutex
	calls := 0
	var last Status
	coord, err := NewCoordinator(lb, []string{"w0"},
		WithHeartbeat(2*time.Millisecond),
		WithProgress(func(worker string, st Status) {
			mu.Lock()
			defer mu.Unlock()
			if worker != "w0" {
				t.Errorf("progress for unknown worker %q", worker)
			}
			calls++
			last = st
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.Sweep(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 {
		t.Fatal("progress callback never fired during the sweep")
	}
	if last.DonePoints == 0 {
		t.Errorf("last progress snapshot %+v shows no completed points", last)
	}
}

// stuckProbeTransport keeps a heartbeat mid-probe as a sweep ends: its
// first Status probe fails, every later one blocks until its context is
// cancelled, and Run holds each dispatch back until a probe is stuck.
type stuckProbeTransport struct {
	Transport
	stuck    chan struct{} // closed when the second probe starts blocking
	released chan struct{} // closed when that probe returns

	mu     sync.Mutex
	probes int
}

// Status fails the first probe and blocks every later one.
func (s *stuckProbeTransport) Status(ctx context.Context, worker string) (Status, error) {
	s.mu.Lock()
	s.probes++
	n := s.probes
	s.mu.Unlock()
	switch n {
	case 1:
		return Status{}, errors.New("test: probe lost")
	case 2:
		close(s.stuck)
		defer close(s.released)
	}
	<-ctx.Done()
	return Status{}, ctx.Err()
}

// Run waits until a probe is stuck, then forwards.
func (s *stuckProbeTransport) Run(ctx context.Context, worker string, job Job, emit func(PointResult) error) error {
	select {
	case <-s.stuck:
	case <-ctx.Done():
		return ctx.Err()
	}
	return s.Transport.Run(ctx, worker, job, emit)
}

// TestReportFinalWhenSweepReturns: nothing a Sweep starts outlives it.
// The only worker is one heartbeat miss down and mid-probe when its
// last shard lands.  Sweep must cancel that probe, must not count the
// cancelled probe as the second miss that declares a healthy worker
// dead, and must join the heartbeat before it builds the Report, so the
// Report it returns never changes afterwards.
func TestReportFinalWhenSweepReturns(t *testing.T) {
	spec := testSpec(t)
	before := runtime.NumGoroutine()
	lb := NewLoopback()
	lb.Add("w0", NewWorker())
	tr := &stuckProbeTransport{Transport: lb, stuck: make(chan struct{}), released: make(chan struct{})}
	coord, err := NewCoordinator(tr, []string{"w0"}, WithHeartbeat(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := coord.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tr.released:
	default:
		t.Error("a heartbeat probe was still running when Sweep returned")
	}
	returned := rep.String()
	if len(rep.DeadWorkers) != 0 {
		t.Errorf("healthy worker declared dead: %s", returned)
	}

	// Let whatever the sweep left running finish, then require that it
	// changed nothing.
	select {
	case <-tr.released:
	case <-time.After(10 * time.Second):
		t.Fatal("the stuck probe was never cancelled")
	}
	waitGoroutines(t, before)
	if later := rep.String(); later != returned {
		t.Fatalf("Report changed after Sweep returned:\nat return: %s\nlater:     %s", returned, later)
	}
}

// TestHTTPStatusEndpoint pins the wire path: /v1/status serves the
// worker's snapshot as JSON and HTTPTransport.Status decodes it.
func TestHTTPStatusEndpoint(t *testing.T) {
	w := NewWorker()
	executeShard(t, w, []int{0, 1, 2, 3})
	srv := NewServer(w)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, err := NewHTTPTransport().Status(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.DonePoints != 4 || st.ActivePoints != 0 {
		t.Errorf("HTTP status %+v, want 4 done, 0 active", st)
	}
	// The wire format is the documented snake_case JSON.
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"active_points", "done_points", "events", "event_rate", "occupancy"} {
		if !json.Valid(data) || !containsField(data, field) {
			t.Errorf("status JSON %s missing field %q", data, field)
		}
	}
	// A vanished worker turns into a structured transport error, which
	// the coordinator counts as a miss.
	ts.Close()
	_, err = NewHTTPTransport().Status(context.Background(), ts.URL)
	var terr *TransportError
	if !errors.As(err, &terr) || terr.Op != "status" || terr.Worker != ts.URL {
		t.Errorf("closed worker server: %#v, want a *TransportError with Op \"status\"", err)
	}
}

// containsField reports whether marshalled JSON has the given key.
func containsField(data []byte, field string) bool {
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return false
	}
	_, ok := m[field]
	return ok
}

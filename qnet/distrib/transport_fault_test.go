package distrib

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/qnet/simulate"
)

// TestHTTPTransportMidLineCut: a stream cut in the middle of an NDJSON
// line (a worker crash between write and flush) must surface the
// structured truncation error — errors.Is-matchable ErrTruncatedStream
// inside a *TransportError — never a silent partial shard.
func TestHTTPTransportMidLineCut(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc(jobsPath, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"point":{"index":0,"result":{}}}`)
		io.WriteString(w, `{"point":{"ind`) // cut mid-line, no newline, no terminal
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		if hj, ok := w.(http.Hijacker); ok {
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	emitted := 0
	err := NewHTTPTransport().Run(context.Background(), ts.URL,
		Job{Space: testSpec(t), Indices: []int{0, 1}},
		func(PointResult) error { emitted++; return nil })
	if !errors.Is(err, ErrTruncatedStream) {
		t.Fatalf("want ErrTruncatedStream, got %v (emitted %d)", err, emitted)
	}
	var terr *TransportError
	if !errors.As(err, &terr) {
		t.Fatalf("truncation error not a *TransportError: %#v", err)
	}
	if terr.Op != "stream" || terr.Worker != ts.URL {
		t.Fatalf("transport error fields: %+v", terr)
	}
	if emitted != 1 {
		t.Fatalf("emitted %d points before the cut, want 1", emitted)
	}
}

// TestHTTPTransportMissingTerminal: the existing no-terminal-line shape
// must also match ErrTruncatedStream structurally (the string check in
// TestHTTPTransportTruncatedStream predates the sentinel).
func TestHTTPTransportMissingTerminal(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc(jobsPath, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"point":{"index":0,"result":{}}}`)
		// Clean close with no done marker.
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	err := NewHTTPTransport().Run(context.Background(), ts.URL,
		Job{Space: testSpec(t), Indices: []int{0}},
		func(PointResult) error { return nil })
	if !errors.Is(err, ErrTruncatedStream) {
		t.Fatalf("want ErrTruncatedStream, got %v", err)
	}
}

// truncatingTransport wraps a Transport and cuts the first dispatch's
// stream after one point, reporting the structured truncation error —
// the transport-seam shape of a worker crash mid-line.
type truncatingTransport struct {
	Transport
	mu   sync.Mutex
	used bool
}

// errCutHere marks the injected cut inside the emit chain.
var errCutHere = errors.New("test: cut here")

// Run truncates the first call, then forwards transparently.
func (tt *truncatingTransport) Run(ctx context.Context, worker string, job Job, emit func(PointResult) error) error {
	tt.mu.Lock()
	first := !tt.used
	tt.used = true
	tt.mu.Unlock()
	if !first {
		return tt.Transport.Run(ctx, worker, job, emit)
	}
	n := 0
	err := tt.Transport.Run(ctx, worker, job, func(pr PointResult) error {
		if n >= 1 {
			return errCutHere
		}
		n++
		return emit(pr)
	})
	if err == nil || errors.Is(err, errCutHere) {
		return &TransportError{Worker: worker, Op: "stream", Err: ErrTruncatedStream}
	}
	return err
}

// TestTruncationTriggersReassignment: a truncated shard must be
// re-dispatched in full — the point delivered before the cut arrives
// again and deduplicates — so the merged output never contains a
// partial shard.
func TestTruncationTriggersReassignment(t *testing.T) {
	spec := testSpec(t)
	want := canonicalPoints(t, singleProcess(t, spec))

	store := simulate.NewCache(0)
	lb := NewLoopback()
	lb.Add("w0", NewWorker(WithWorkerStore(store), WithWorkerParallelism(1)))
	tt := &truncatingTransport{Transport: lb}
	coord, err := NewCoordinator(tt, []string{"w0"},
		WithSharedStore(store, ""),
		WithShards(2),
		WithMaxAttempts(3),
		WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	points, rep, err := coord.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalPoints(t, points); string(got) != string(want) {
		t.Fatalf("point set after truncation differs:\n got %s\nwant %s", got, want)
	}
	if rep.Reassignments < 1 {
		t.Fatalf("truncated shard was not re-dispatched: %s", rep)
	}
	if rep.DuplicatePoints < 1 {
		t.Fatalf("re-dispatched shard re-delivered nothing: %s", rep)
	}
	if rep.Points != 8 {
		t.Fatalf("merged %d points, want 8: %s", rep.Points, rep)
	}
	t.Logf("report: %s", rep)
}

// TestRemoteStoreContext covers the context/timeout satellite: a bound
// context governs Get and Put (cancellation degrades to miss/write-
// error, never a hang), the per-request timeout is configurable, and
// WithContext views share one stats counter set.
func TestRemoteStoreContext(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		http.NotFound(w, r)
	}))
	defer slow.Close()

	var key simulate.Key
	key[0] = 0x5a

	// A cancelled bound context turns Get into an immediate miss and Put
	// into a counted write error, even against a hung server.
	rs := NewRemoteStore(slow.URL)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bound := rs.WithContext(ctx)
	start := time.Now()
	if _, ok := bound.Get(key); ok {
		t.Fatal("hit from a cancelled context")
	}
	bound.Put(key, simulate.Result{Events: 1})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled requests took %v", elapsed)
	}
	// The view's traffic landed in the parent's counters.
	if s := rs.Stats(); s.Misses != 1 || s.WriteErrors != 1 {
		t.Fatalf("parent stats after bound-view traffic: %+v", s)
	}

	// The per-request timeout is an option, not a hardcoded 30s.
	quick := NewRemoteStore(slow.URL, WithStoreTimeout(20*time.Millisecond))
	start = time.Now()
	if _, ok := quick.Get(key); ok {
		t.Fatal("hit from a timed-out request")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timed-out Get took %v", elapsed)
	}
	once.Do(func() { close(release) })
}

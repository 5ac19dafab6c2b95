package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/qnet/distrib/chaos"
	"repro/qnet/simulate"
)

// TestLoopbackDrainFailover: a draining worker refuses new shards with
// ErrWorkerDraining; the coordinator treats it as healthy-but-
// unavailable (never dead), finishes the sweep on the rest of the
// fleet, and the merged output is unchanged.
func TestLoopbackDrainFailover(t *testing.T) {
	spec := testSpec(t)
	want := canonicalPoints(t, singleProcess(t, spec))

	store := simulate.NewCache(0)
	lb := NewLoopback()
	lb.Add("w0", NewWorker(WithWorkerStore(store)))
	lb.Add("w1", NewWorker(WithWorkerStore(store)))
	lb.Drain("w0")

	coord, err := NewCoordinator(lb, []string{"w0", "w1"},
		WithSharedStore(store, ""),
		WithShards(4),
		WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	points, rep, err := coord.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalPoints(t, points); string(got) != string(want) {
		t.Fatalf("point set with a draining worker differs:\n got %s\nwant %s", got, want)
	}
	if len(rep.DrainingWorkers) != 1 || rep.DrainingWorkers[0] != "w0" {
		t.Fatalf("draining workers %v, want [w0]", rep.DrainingWorkers)
	}
	if len(rep.DeadWorkers) != 0 {
		t.Fatalf("draining worker was declared dead: %v", rep.DeadWorkers)
	}
	if rep.ShardsByWorker["w1"] != 4 {
		t.Fatalf("survivor should own all 4 shards: %v", rep.ShardsByWorker)
	}
	// A drain refusal is not a failed attempt: no reassignments, no
	// quarantines.
	if rep.Reassignments != 0 || rep.Quarantines != 0 {
		t.Fatalf("drain refusal counted as failure: %s", rep)
	}
	t.Logf("report: %s", rep)
}

// TestAllWorkersDrainingFails: a fleet with every worker draining must
// fail the sweep promptly (workers are healthy, so nothing would ever
// mark them dead — the drain path itself has to detect the stall).
func TestAllWorkersDrainingFails(t *testing.T) {
	spec := testSpec(t)
	lb := NewLoopback()
	lb.Add("w0", NewWorker())
	lb.Drain("w0")
	coord, err := NewCoordinator(lb, []string{"w0"}, WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var sweepErr error
	go func() {
		defer close(done)
		_, _, sweepErr = coord.Sweep(context.Background(), spec)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("sweep hung with the whole fleet draining")
	}
	if sweepErr == nil {
		t.Fatal("sweep succeeded with the whole fleet draining")
	}
	if !strings.Contains(sweepErr.Error(), "draining") {
		t.Fatalf("want a draining-fleet error, got %v", sweepErr)
	}
}

// TestHTTPServerDrain covers the server side of graceful shutdown: a
// draining server refuses new submissions with 503 "draining", keeps
// /v1/status alive with Draining set, and Drain blocks until every
// accepted job has streamed its terminal line.
func TestHTTPServerDrain(t *testing.T) {
	spec := testSpec(t)
	srv := NewServer(NewWorker())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tr := NewHTTPTransport()

	if st, err := tr.Status(context.Background(), ts.URL); err != nil || st.Draining {
		t.Fatalf("status before drain: %+v, %v", st, err)
	}

	// Accept one job pre-drain, but do not read its stream yet.
	resp := submitJob(t, ts.URL, spec, []int{0})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pre-drain submit: status %d", resp.StatusCode)
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil || accepted.ID == "" {
		t.Fatalf("accept body: %v", err)
	}
	resp.Body.Close()

	srv.StartDrain()
	if !srv.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}

	// New submissions are refused with the draining marker...
	resp2 := submitJob(t, ts.URL, spec, []int{1})
	b, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(b), drainingBody) {
		t.Fatalf("submit during drain: status %d body %q", resp2.StatusCode, b)
	}
	// ...the transport maps that refusal to ErrWorkerDraining...
	err := tr.Run(context.Background(), ts.URL, Job{Space: spec, Indices: []int{1}},
		func(PointResult) error { return nil })
	if !errors.Is(err, ErrWorkerDraining) {
		t.Fatalf("Run during drain: %v, want ErrWorkerDraining", err)
	}
	var terr *TransportError
	if !errors.As(err, &terr) || terr.Op != "submit" {
		t.Fatalf("drain refusal not structured: %#v", err)
	}
	// ...but status stays answerable, flagged draining.
	st, err := tr.Status(context.Background(), ts.URL)
	if err != nil {
		t.Fatalf("status during drain: %v", err)
	}
	if !st.Draining {
		t.Fatal("Status.Draining false during drain")
	}

	// Drain must not complete while the accepted job's stream is unread.
	shortCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := srv.Drain(shortCtx); err == nil {
		t.Fatal("Drain returned with an unstreamed job outstanding")
	}
	cancel()

	// Reading the stream through its terminal line completes the drain.
	streamResp, err := http.Get(ts.URL + jobsPath + "/" + accepted.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, streamResp.Body)
	streamResp.Body.Close()
	drainCtx, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("Drain after stream consumed: %v", err)
	}
}

// gatedStore blocks every Get until open is closed, signalling entered
// on the first, then misses.
type gatedStore struct {
	simulate.Store
	entered, open chan struct{}
	once          sync.Once
}

// Get waits for the gate, then misses.
func (s *gatedStore) Get(simulate.Key) (simulate.Result, bool) {
	s.once.Do(func() { close(s.entered) })
	<-s.open
	return simulate.Result{}, false
}

// TestHTTPServerDrainAfterHangup: a coordinator that gives up on a
// stream (its dispatch cancelled, its worker declared dead) never reads
// that stream again, so the server must drop the job once the stream
// breaks.  Here the reader hangs up while the job is held mid-execution;
// once the job is released, Drain must return as soon as it has
// finished executing, not wait out its timeout for a stream nobody
// reads.
func TestHTTPServerDrainAfterHangup(t *testing.T) {
	spec := testSpec(t)
	store := &gatedStore{Store: simulate.NewCache(0), entered: make(chan struct{}), open: make(chan struct{})}
	srv := NewServer(NewWorker(WithWorkerStore(store), WithWorkerParallelism(1)))
	defer srv.Close()
	streaming := make(chan struct{})
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			close(streaming)
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	release := sync.OnceFunc(func() { close(store.open) })
	defer release() // never leave the job blocked

	resp := submitJob(t, ts.URL, spec, []int{0, 1, 2, 3, 4, 5, 6, 7})
	var accepted struct {
		ID string `json:"id"`
	}
	err := json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	<-store.entered

	// Open the stream, then hang up while the job is still held.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+jobsPath+"/"+accepted.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	hungUp := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		hungUp <- err
	}()
	<-streaming
	cancel()
	if err := <-hungUp; err == nil {
		t.Fatal("stream read completed although the job is held")
	}

	release()
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelDrain()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("Drain after the reader hung up: %v", err)
	}
}

// TestHTTPCoordinatorDrainFailover runs the drain path end to end over
// real HTTP: one of two sweepd-style servers is draining, and the
// coordinator completes the sweep on the other, reporting the drained
// worker as draining, not dead.
func TestHTTPCoordinatorDrainFailover(t *testing.T) {
	spec := testSpec(t)
	want := canonicalPoints(t, singleProcess(t, spec))

	store := simulate.NewCache(0)
	storeSrv := httptest.NewServer(NewStoreServer(store).Handler())
	defer storeSrv.Close()

	var urls []string
	var servers []*Server
	for i := 0; i < 2; i++ {
		srv := NewServer(NewWorker())
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
		servers = append(servers, srv)
	}
	servers[0].StartDrain()

	coord, err := NewCoordinator(NewHTTPTransport(), urls,
		WithSharedStore(store, storeSrv.URL),
		WithShards(4),
		WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	points, rep, err := coord.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalPoints(t, points); string(got) != string(want) {
		t.Fatalf("point set with a draining HTTP worker differs:\n got %s\nwant %s", got, want)
	}
	if len(rep.DrainingWorkers) != 1 || rep.DrainingWorkers[0] != urls[0] {
		t.Fatalf("draining workers %v, want [%s]", rep.DrainingWorkers, urls[0])
	}
	if len(rep.DeadWorkers) != 0 {
		t.Fatalf("draining worker declared dead: %v", rep.DeadWorkers)
	}
	t.Logf("report: %s", rep)
}

// submitJob POSTs one job to a worker server.
func submitJob(t *testing.T, base string, spec SpaceSpec, indices []int) *http.Response {
	t.Helper()
	data, err := json.Marshal(Job{Space: spec, Indices: indices})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+jobsPath, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestLoopbackDrainSurvivesFlap: chaos flaps only the probes a worker
// answered as alive.  A draining worker's answer is a verdict, not
// liveness noise; flapping it would let chaos turn a drain into a
// death.  Flap: 1 flaps every probe it is allowed to.
func TestLoopbackDrainSurvivesFlap(t *testing.T) {
	lb := NewLoopback()
	lb.Add("w0", NewWorker())
	lb.Add("w1", NewWorker())
	lb.Drain("w0")
	tr := NewChaos(lb, chaos.New(chaos.Config{Flap: 1}))

	st, err := tr.Status(context.Background(), "w0")
	if err != nil || !st.Draining {
		t.Fatalf("draining worker's status under Flap 1: %+v, %v; want Draining and no error", st, err)
	}
	if _, err := tr.Status(context.Background(), "w1"); !errors.Is(err, errProbeDropped) {
		t.Fatalf("live worker's probe under Flap 1: %v, want a dropped probe", err)
	}
}

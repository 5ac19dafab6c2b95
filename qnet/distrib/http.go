// The worker job API over HTTP: Server exposes a Worker as the
// three-endpoint protocol cmd/sweepd serves, and HTTPTransport is the
// coordinator-side client.
//
//	POST /v1/jobs             <- JSON Job, -> 202 + {"id": "..."}
//	GET  /v1/jobs/{id}/stream -> newline-delimited JSON stream lines
//	GET  /v1/status           -> 200 + JSON Status (live telemetry, liveness, drain)
//
// Each stream line carries either one finished point, a terminal
// worker-side error, or the terminal done marker; a stream that ends
// without a terminal line was truncated (worker death) and the client
// reports it as such.

package distrib

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// jobsPath is the URL prefix of the job endpoints.
const jobsPath = "/v1/jobs"

// statusPath is the live worker-telemetry endpoint, which doubles as
// the liveness probe.
const statusPath = "/v1/status"

// drainingBody is the body a draining server answers job submissions
// with (alongside 503); the client maps it to ErrWorkerDraining.
const drainingBody = "draining"

// streamLine is one newline-delimited JSON line of a job's result
// stream: exactly one of Point, Err or Done is set.
type streamLine struct {
	// Point is one finished run point.
	Point *PointResult `json:"point,omitempty"`
	// Err terminates the stream with a worker-side failure.
	Err string `json:"error,omitempty"`
	// Done terminates the stream cleanly: every point was delivered.
	Done bool `json:"done,omitempty"`
}

// jobState buffers one job's results between the executing goroutine
// and (possibly later, possibly slower) stream readers.
type jobState struct {
	mu     sync.Mutex
	cond   *sync.Cond
	points []PointResult
	done   bool
	err    error
}

// newJobState builds an empty buffer.
func newJobState() *jobState {
	js := &jobState{}
	js.cond = sync.NewCond(&js.mu)
	return js
}

// Server serves the worker job API over a Worker.  Create it with
// NewServer, mount Handler, and Close it on shutdown to cancel any
// jobs still executing.  For a graceful shutdown, Drain first: the
// server refuses new jobs (503 "draining") while the shards already
// accepted finish executing and streaming.
type Server struct {
	worker *Worker
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	nextID    int
	jobs      map[string]*jobState
	executing int // jobs whose Execute has not returned yet
	draining  bool
}

// NewServer builds a job server executing on the given worker.
func NewServer(w *Worker) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{worker: w, ctx: ctx, cancel: cancel, jobs: make(map[string]*jobState)}
}

// Close cancels every job still executing.  In-flight streams end with
// an error line.
func (s *Server) Close() { s.cancel() }

// StartDrain flips the server into draining mode: /v1/status sets
// Status.Draining and new job submissions are refused with 503
// "draining", while jobs already accepted keep executing and
// streaming.  Draining is one-way; use Drain to also wait for the
// in-flight work.
func (s *Server) StartDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether StartDrain (or Drain) has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the job API down: it stops accepting new
// jobs (StartDrain) and blocks until every accepted job has finished
// executing and its stream has ended, or ctx expires — the
// SIGTERM path of cmd/sweepd.  It returns ctx.Err() on timeout, nil
// once the server is idle; either way the server stays drained.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	for {
		if s.drained() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// drained reports whether no job is executing and every accepted
// job's stream has ended.
func (s *Server) drained() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.executing == 0 && len(s.jobs) == 0
}

// Handler returns the job API's http.Handler, with the store API's
// routes left unclaimed (mount a StoreServer beside it if this worker
// should also serve the fleet store).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(statusPath, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		st := s.worker.Status()
		st.Draining = s.Draining()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc(jobsPath, s.serveSubmit)
	mux.HandleFunc(jobsPath+"/", s.serveStream)
	return mux
}

// serveSubmit accepts a job, starts executing it immediately, and
// replies with its id.
func (s *Server) serveSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var job Job
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&job); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := job.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		http.Error(w, drainingBody, http.StatusServiceUnavailable)
		return
	}
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	js := newJobState()
	s.jobs[id] = js
	s.executing++
	s.mu.Unlock()
	job.ID = id

	go func() {
		err := s.worker.Execute(s.ctx, job, func(pr PointResult) error {
			js.mu.Lock()
			js.points = append(js.points, pr)
			js.cond.Broadcast()
			js.mu.Unlock()
			return nil
		})
		js.mu.Lock()
		js.done, js.err = true, err
		js.cond.Broadcast()
		js.mu.Unlock()
		s.mu.Lock()
		s.executing--
		s.mu.Unlock()
	}()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(struct {
		ID string `json:"id"`
	}{ID: id})
}

// serveStream streams a job's results as they finish, ending with a
// terminal done or error line.  The job is dropped from the server's
// table once its stream ends, whether it reached the terminal line or
// the reader hung up: nothing reads a stream twice (a coordinator
// retries by submitting a new job), and a job left in the table would
// hold its points and stall Drain until its timeout.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, jobsPath+"/")
	id, ok := strings.CutSuffix(rest, "/stream")
	if !ok || id == "" || strings.Contains(id, "/") {
		http.NotFound(w, r)
		return
	}
	s.mu.Lock()
	js := s.jobs[id]
	s.mu.Unlock()
	if js == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	write := func(line streamLine) bool {
		if err := enc.Encode(line); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	next := 0
	for {
		js.mu.Lock()
		for next >= len(js.points) && !js.done {
			js.cond.Wait()
		}
		batch := js.points[next:]
		next = len(js.points)
		done, err := js.done, js.err
		js.mu.Unlock()
		for i := range batch {
			if !write(streamLine{Point: &batch[i]}) {
				s.forget(id) // the reader hung up
				return
			}
		}
		if done && next == s.lenPoints(js) {
			if err != nil {
				write(streamLine{Err: err.Error()})
			} else {
				write(streamLine{Done: true})
			}
			s.forget(id)
			return
		}
	}
}

// forget drops a job whose stream has ended from the server's table.
func (s *Server) forget(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	s.mu.Unlock()
}

// lenPoints reads the job's current point count under its lock.
func (s *Server) lenPoints(js *jobState) int {
	js.mu.Lock()
	defer js.mu.Unlock()
	return len(js.points)
}

// HTTPTransport is the coordinator-side client of the worker job API:
// worker names are base URLs such as "http://host:9000".
type HTTPTransport struct {
	// Client is the HTTP client used for all calls.  It must not set
	// an overall timeout (result streams outlive any fixed budget);
	// bound calls through the context instead.
	Client *http.Client
}

// HTTPTransport implements Transport.
var _ Transport = (*HTTPTransport)(nil)

// NewHTTPTransport builds the default HTTP transport.
func NewHTTPTransport() *HTTPTransport {
	return &HTTPTransport{Client: &http.Client{}}
}

// Run submits the job to the worker at the given base URL and decodes
// its result stream, emitting every point.  Failures are structured
// *TransportError values: a 503 "draining" submission wraps
// ErrWorkerDraining (the worker is shutting down gracefully, not
// dead), and a stream that ends without a terminal line — whether cut
// between lines or mid-line — wraps ErrTruncatedStream, so a worker
// dying mid-shard can never read as a complete shard; either way the
// coordinator reassigns.
func (t *HTTPTransport) Run(ctx context.Context, worker string, job Job, emit func(PointResult) error) error {
	base := strings.TrimSuffix(worker, "/")
	body, err := json.Marshal(job)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+jobsPath, bytes.NewReader(body))
	if err != nil {
		return &TransportError{Worker: worker, Op: "submit", Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.Client.Do(req)
	if err != nil {
		return &TransportError{Worker: worker, Op: "submit", Err: err}
	}
	acceptBody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		if resp.StatusCode == http.StatusServiceUnavailable && bytes.Contains(acceptBody, []byte(drainingBody)) {
			return &TransportError{Worker: worker, Op: "submit", Err: ErrWorkerDraining}
		}
		return &TransportError{Worker: worker, Op: "submit", Err: fmt.Errorf("status %s", resp.Status)}
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(acceptBody, &accepted); err != nil || accepted.ID == "" {
		return &TransportError{Worker: worker, Op: "submit", Err: errors.New("bad accept body")}
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s%s/%s/stream", base, jobsPath, accepted.ID), nil)
	if err != nil {
		return &TransportError{Worker: worker, Op: "stream", Err: err}
	}
	resp, err = t.Client.Do(req)
	if err != nil {
		return &TransportError{Worker: worker, Op: "stream", Err: err}
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return &TransportError{Worker: worker, Op: "stream", Err: fmt.Errorf("status %s", resp.Status)}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			// An undecodable line is a stream cut mid-line (a crash
			// between write and flush): structurally truncated, exactly
			// like a missing terminal line.
			return &TransportError{Worker: worker, Op: "stream",
				Err: fmt.Errorf("%w: undecodable line: %v", ErrTruncatedStream, err)}
		}
		switch {
		case line.Err != "":
			return fmt.Errorf("distrib: worker %s: %s", worker, line.Err)
		case line.Done:
			return nil
		case line.Point != nil:
			if err := emit(*line.Point); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return &TransportError{Worker: worker, Op: "stream",
			Err: fmt.Errorf("%w: %v", ErrTruncatedStream, err)}
	}
	return &TransportError{Worker: worker, Op: "stream", Err: ErrTruncatedStream}
}

// Status fetches the worker's /v1/status telemetry snapshot with a
// short deadline layered under ctx.  Every failure is a *TransportError
// with Op "status"; a draining worker still answers, with
// Status.Draining set.
func (t *HTTPTransport) Status(ctx context.Context, worker string) (Status, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(worker, "/")+statusPath, nil)
	if err != nil {
		return Status{}, &TransportError{Worker: worker, Op: "status", Err: err}
	}
	resp, err := t.Client.Do(req)
	if err != nil {
		return Status{}, &TransportError{Worker: worker, Op: "status", Err: err}
	}
	var st Status
	decErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Status{}, &TransportError{Worker: worker, Op: "status", Err: fmt.Errorf("status %s", resp.Status)}
	}
	if decErr != nil {
		return Status{}, &TransportError{Worker: worker, Op: "status", Err: decErr}
	}
	return st, nil
}

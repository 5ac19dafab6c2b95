// The worker job API over HTTP: Server exposes a Worker as the
// two-endpoint protocol cmd/sweepd serves, and HTTPTransport is the
// coordinator-side client.
//
//	POST /v1/jobs   <- JSON Job, -> 200 + newline-delimited JSON stream lines
//	GET  /v1/status -> 200 + JSON Status (live telemetry, liveness, drain)
//
// One shard dispatch is one request: the job runs under that
// request's context, so a coordinator that hangs up stops its shard.
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
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// jobsPath is the job endpoint.
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
	executing int // accepted jobs whose stream has not ended yet
	draining  bool
}

// NewServer builds a job server executing on the given worker.
func NewServer(w *Worker) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{worker: w, ctx: ctx, cancel: cancel}
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
		s.mu.Lock()
		idle := s.executing == 0
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
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
	mux.HandleFunc(jobsPath, s.serveJob)
	return mux
}

// serveJob answers a job with its result stream.  Every refusal — a
// malformed job (400) or a draining server (503) — is decided before
// the 200.  The job then executes under the request's context, so a
// coordinator that hangs up (or a Close) stops the shard; each
// finished point is flushed as one stream line, and the stream ends
// with a terminal done or error line.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	// Read the body to EOF: only then does net/http watch the
	// connection and cancel r.Context() when the coordinator hangs up.
	body := http.MaxBytesReader(w, r.Body, 64<<20)
	var job Job
	err := json.NewDecoder(body).Decode(&job)
	if err == nil {
		_, err = io.Copy(io.Discard, body)
	}
	if err != nil {
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
	s.executing++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.executing--
		s.mu.Unlock()
	}()

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.ctx, cancel)()

	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	// A failed flush fails the next Encode, and a writer that cannot
	// flush delivers its lines late but whole: neither error is news.
	write := func(line streamLine) error {
		err := enc.Encode(line)
		rc.Flush()
		return err
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc.Flush() // the coordinator learns of the acceptance now, not at the first point
	err = s.worker.Execute(ctx, job, func(pr PointResult) error {
		return write(streamLine{Point: &pr})
	})
	if err != nil {
		write(streamLine{Err: err.Error()})
	} else {
		write(streamLine{Done: true})
	}
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

// Run posts the job to the worker at the given base URL and decodes
// the result stream that answers it, emitting every point.  Returning
// before the stream's terminal line — an emit failure, a cancelled
// ctx — hangs up, which stops the job on the worker.  Failures are
// structured *TransportError values: a 503 "draining" refusal wraps
// ErrWorkerDraining (the worker is shutting down gracefully, not
// dead), and a stream that ends without a terminal line — whether cut
// between lines or mid-line — wraps ErrTruncatedStream, so a worker
// dying mid-shard can never read as a complete shard; either way the
// coordinator reassigns.
func (t *HTTPTransport) Run(ctx context.Context, worker string, job Job, emit func(PointResult) error) error {
	body, err := json.Marshal(job)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(worker, "/")+jobsPath, bytes.NewReader(body))
	if err != nil {
		return &TransportError{Worker: worker, Op: "submit", Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.Client.Do(req)
	if err != nil {
		return &TransportError{Worker: worker, Op: "submit", Err: err}
	}
	defer resp.Body.Close()
	// A body read to its end leaves the connection reusable.
	drain := func() { io.Copy(io.Discard, resp.Body) }
	if resp.StatusCode != http.StatusOK {
		refusal, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		drain()
		if resp.StatusCode == http.StatusServiceUnavailable && bytes.Contains(refusal, []byte(drainingBody)) {
			return &TransportError{Worker: worker, Op: "submit", Err: ErrWorkerDraining}
		}
		return &TransportError{Worker: worker, Op: "submit", Err: fmt.Errorf("status %s", resp.Status)}
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
			drain()
			return fmt.Errorf("distrib: worker %s: %s", worker, line.Err)
		case line.Done:
			drain()
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

// The transport seam between coordinator and workers.

package distrib

import (
	"context"
	"errors"
	"fmt"
)

// ErrTruncatedStream marks a result stream that ended without a
// terminal done/error line — whether cut between lines or mid-line.
// Transports wrap it (errors.Is-matchable) so the coordinator can tell
// a structurally broken stream from a worker-side failure; either way
// the shard reassigns, never partially merges.
var ErrTruncatedStream = errors.New("distrib: result stream truncated")

// ErrWorkerDraining marks a worker that refused a dispatch because it
// is draining: alive, finishing its in-flight shards, but accepting no
// new work.  The coordinator treats it as healthy-but-unavailable — it
// stops dispatching to the worker without declaring it dead.
var ErrWorkerDraining = errors.New("distrib: worker is draining")

// TransportError is the structured failure of one transport call: the
// worker it targeted, the operation that failed, and the cause.  It
// unwraps to the cause, so errors.Is sees sentinels like
// ErrTruncatedStream and ErrWorkerDraining through it.
type TransportError struct {
	// Worker is the worker name (for HTTPTransport, its base URL).
	Worker string
	// Op is the operation that failed: "submit", "stream" or "status".
	Op string
	// Err is the underlying cause.
	Err error
}

// Error renders the failure with its worker and operation.
func (e *TransportError) Error() string {
	return fmt.Sprintf("distrib: %s %s: %v", e.Op, e.Worker, e.Err)
}

// Unwrap returns the underlying cause.
func (e *TransportError) Unwrap() error { return e.Err }

// Transport carries jobs from the coordinator to named workers and
// streams their results back.  Two implementations ship: HTTPTransport
// (worker names are base URLs of cmd/sweepd processes) and Loopback
// (in-process workers, for tests and benchmarks — no sockets).  The
// coordinator is transport-agnostic, so a future mesh transport slots
// in without touching dispatch logic.
type Transport interface {
	// Run submits the job to the named worker and calls emit once per
	// finished point until the shard completes.  It returns nil only
	// after the worker signalled clean completion; a truncated stream,
	// an unreachable worker or a worker-side failure is an error (the
	// coordinator's cue to reassign the shard).
	Run(ctx context.Context, worker string, job Job, emit func(PointResult) error) error
	// Status fetches the named worker's live telemetry snapshot —
	// shard progress plus, for telemetry-enabled workers, the event
	// rate and router occupancy of the runs in flight.  It is also the
	// coordinator's only liveness probe: an unreachable or dead worker
	// is an error, and a draining one answers with Status.Draining set.
	Status(ctx context.Context, worker string) (Status, error)
}

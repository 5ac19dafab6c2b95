// Per-worker live telemetry: the progress/health snapshot a worker
// exports while it executes, carried over the transport so coordinator
// heartbeats double as progress probes.

package distrib

// Status is one worker's live telemetry snapshot: shard progress plus
// the aggregate event-rate and congestion view of the runs in flight.
// The progress counters are always maintained; the event-rate and
// occupancy fields are fed by qnet/trace and stay zero unless the
// worker was built with WithWorkerTelemetry.
type Status struct {
	// Draining reports that the worker is shutting down gracefully: it
	// refuses new jobs (ErrWorkerDraining) while finishing the shards
	// already in flight.  The coordinator treats a draining worker as
	// healthy but unavailable — never dead.
	Draining bool `json:"draining,omitempty"`
	// ActivePoints is how many run points the worker is simulating
	// right now; a point being looked up in the store, or waiting for
	// another run of its key, is not counted.
	ActivePoints int `json:"active_points"`
	// DonePoints counts run points the worker has finished since it
	// started — simulated, store-served and failed alike; a point whose
	// run a cancellation cut short is not counted.
	DonePoints uint64 `json:"done_points"`
	// Events is the summed processed-event count of the active traced
	// runs, as of each run's latest telemetry sample.
	Events uint64 `json:"events"`
	// EventRate is the summed simulation event rate of the active
	// traced runs, in events per second of simulated time.
	EventRate float64 `json:"event_rate"`
	// Occupancy is the mean router queue occupancy across the active
	// traced runs' latest samples, in batches per router — the same
	// series the congestion tracer exports.
	Occupancy float64 `json:"occupancy"`
}

// Chaos fault injection at the service layer: a Transport wrapper and
// a Store wrapper that replay a seeded chaos.Schedule against any
// inner implementation, so every coordinator failure path — injected
// latency, refused dispatches, mid-stream truncation, duplicated
// result lines, Status-probe flaps, store read misses and dropped
// writes — is exercisable deterministically, with no real failures.

package distrib

import (
	"context"
	"errors"
	"time"

	"repro/qnet/distrib/chaos"
	"repro/qnet/simulate"
)

// Chaos wraps an inner Transport with seeded fault injection driven by
// a chaos.Schedule.  Faults are injected on the coordinator side of
// the transport seam, so the inner transport (Loopback or
// HTTPTransport) and the workers behind it stay healthy — exactly the
// point: the coordinator must absorb every injected failure without
// changing its merged output.
type Chaos struct {
	inner Transport
	sched *chaos.Schedule
}

// Chaos implements Transport.
var _ Transport = (*Chaos)(nil)

// NewChaos wraps the transport with fault injection from the schedule.
func NewChaos(inner Transport, sched *chaos.Schedule) *Chaos {
	return &Chaos{inner: inner, sched: sched}
}

// errRefused is the cause of an injected connection refusal.
var errRefused = errors.New("chaos: connection refused")

// errProbeDropped is the cause of an injected Status-probe flap.
var errProbeDropped = errors.New("chaos: probe dropped")

// Run applies one Dispatch decision around the inner transport's Run:
// an injected delay first, then possibly an outright refusal; during
// the stream, result lines may be duplicated, and the stream may be
// cut after a few points as a truncation error.  Emit failures from
// the coordinator pass through unwrapped.
func (c *Chaos) Run(ctx context.Context, worker string, job Job, emit func(PointResult) error) error {
	d := c.sched.Dispatch()
	if d.Delay > 0 {
		t := time.NewTimer(d.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return &TransportError{Worker: worker, Op: "submit", Err: ctx.Err()}
		}
	}
	if d.Refuse {
		return &TransportError{Worker: worker, Op: "submit", Err: errRefused}
	}
	truncated := errors.New("chaos: stream cut") // unique sentinel per call
	delivered := 0
	err := c.inner.Run(ctx, worker, job, func(pr PointResult) error {
		if d.TruncateAfter >= 0 && delivered >= d.TruncateAfter {
			return truncated
		}
		delivered++
		if err := emit(pr); err != nil {
			return err
		}
		if d.Duplicate {
			return emit(pr)
		}
		return nil
	})
	if errors.Is(err, truncated) {
		return &TransportError{Worker: worker, Op: "stream", Err: ErrTruncatedStream}
	}
	return err
}

// Status fetches through the inner transport, with injected flaps: a
// flapped probe fails even though the worker is alive.  A draining
// answer passes through un-flapped, so chaos never turns a draining
// worker into a dead-looking one.
func (c *Chaos) Status(ctx context.Context, worker string) (Status, error) {
	st, err := c.inner.Status(ctx, worker)
	if err == nil && !st.Draining && c.sched.Flap() {
		return Status{}, &TransportError{Worker: worker, Op: "status", Err: errProbeDropped}
	}
	return st, err
}

// ChaosStore wraps an inner simulate.Store with injected read misses
// and dropped writes from a chaos.Schedule.  Both faults respect the
// Store contract — best-effort, never an error — so they model a flaky
// or partitioned store exactly: a forced miss re-simulates, a dropped
// write leaves the store cold for the next reader.
type ChaosStore struct {
	inner simulate.Store
	sched *chaos.Schedule
}

// ChaosStore implements simulate.Store.
var _ simulate.Store = (*ChaosStore)(nil)

// NewChaosStore wraps the store with fault injection from the schedule.
func NewChaosStore(inner simulate.Store, sched *chaos.Schedule) *ChaosStore {
	return &ChaosStore{inner: inner, sched: sched}
}

// Get forwards to the inner store unless the schedule forces a miss.
func (cs *ChaosStore) Get(k simulate.Key) (simulate.Result, bool) {
	if cs.sched.MissGet() {
		return simulate.Result{}, false
	}
	return cs.inner.Get(k)
}

// Put forwards to the inner store unless the schedule drops the write.
func (cs *ChaosStore) Put(k simulate.Key, res simulate.Result) {
	if cs.sched.DropPut() {
		return
	}
	cs.inner.Put(k, res)
}

// Stats returns the inner store's counters.
func (cs *ChaosStore) Stats() simulate.CacheStats { return cs.inner.Stats() }

// Package trace exposes the simulator's time-series telemetry layer: a
// ring-buffered, sampling tracer that records per-router queue
// occupancy, per-link utilization and drop/resend events over simulated
// time.
//
// A Tracer attaches to a machine with simulate.WithTrace (or
// Machine.WithTrace) and is sampled through the event engine's probe
// hook at exact multiples of its interval:
//
//	tr := trace.New(trace.Config{Interval: 50 * time.Microsecond})
//	m, err := simulate.New(grid, simulate.MobileQubit, simulate.WithTrace(tr))
//	res, err := m.Run(ctx, qnet.QFT(grid.Tiles()))
//	err = tr.Export().Encode(file) // versioned JSON time series
//
// The tracer is an observer, never part of the model: a traced run
// executes exactly the same events and produces a byte-identical
// Result, which is why the tracer is excluded from Machine.CacheKey.
// A traced Run always simulates (a cached Result has nothing to
// observe) but still stores its result back into an attached cache.
//
// The exported series follow the route.Loads contract: occupancy and
// utilization are counter-over-capacity ratios that exceed 1.0 under
// backlog.  Clamp01 bounds them for color scaling; the congestion
// heatmap (internal/figures, `figures -fig congestion`) renders them
// that way.
package trace

import (
	"io"

	"repro/internal/trace"
)

// Config parameterizes a Tracer: the sampling interval in simulated
// time and the sample/event ring capacities (zero fields select the
// package defaults).
type Config = trace.Config

// Tracer records one run's time series.  Bind it to a run through
// simulate.WithTrace; only Live is safe to call from other goroutines
// while the traced run executes.
type Tracer = trace.Tracer

// Export is the compact, versioned serialization of one recorded run:
// columnar per-sample series plus the drop/resend event log.  Equal
// runs export byte-identical traces.
type Export = trace.Export

// Event is one traced drop or resend, stamped with simulated time and
// the canonical link index it occurred on.
type Event = trace.Event

// EventKind classifies a traced event (Drop or Resend).
type EventKind = trace.EventKind

// The traced event kinds.
const (
	// Drop is a batch lost in flight to the fault model.
	Drop = trace.Drop
	// Resend is a replacement batch injected after a drop or a
	// purification failure.
	Resend = trace.Resend
)

// Live is the tracer's cheap concurrent snapshot, refreshed once per
// sample; the distributed worker's heartbeat telemetry reads it.
type Live = trace.Live

// Version is the trace export format identifier; Decode rejects any
// other value.
const Version = trace.Version

// DefaultInterval is the sampling interval selected by a zero
// Config.Interval.
const DefaultInterval = trace.DefaultInterval

// DefaultCapacity is the sample-ring size selected by a zero
// Config.Capacity.
const DefaultCapacity = trace.DefaultCapacity

// New builds a tracer with the given configuration (zero fields select
// the defaults).
func New(cfg Config) *Tracer { return trace.New(cfg) }

// Decode reads an export written by Export.Encode, rejecting unknown
// format versions.
func Decode(r io.Reader) (*Export, error) { return trace.Decode(r) }

// Clamp01 clamps a load or utilization value into [0, 1] for color and
// glyph scaling: the route.Loads contract reports queue pressure as
// occupancy over capacity, which exceeds 1.0 under backlog.
func Clamp01(v float64) float64 { return trace.Clamp01(v) }

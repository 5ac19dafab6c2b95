// Package trace is the time-series telemetry layer of the simulator: a
// ring-buffered, sampling tracer that observes a run over simulated
// time — per-router queue occupancy, per-link utilization, and the
// drop/resend events of the fault and failure layers.
//
// A Tracer attaches to a machine with simulate.WithTrace (or
// Machine.WithTrace):
//
//	tr := trace.New(trace.Config{Interval: 50 * time.Microsecond})
//	m, err := simulate.New(grid, simulate.MobileQubit, simulate.WithTrace(tr))
//	res, err := m.Run(ctx, qnet.QFT(grid.Tiles()))
//	err = tr.Export().Encode(file) // versioned JSON time series
//
// The tracer is an observer, never part of the model: it attaches to
// the event engine through the sim.Probe hook, which fires at exact
// multiples of the sampling interval without scheduling events, so a
// traced run executes the same events — and produces a byte-identical
// Result — as an untraced one.  That is also why the tracer is
// excluded from Machine.CacheKey.  A traced Run always simulates (a
// cached Result has nothing to observe) but still stores its result
// back into an attached cache.
//
// All sample storage is preallocated when the tracer binds to a run
// (Bind): sampling in steady state reuses ring slots and allocates
// nothing, and a disabled tracer (no tracer attached at all) costs the
// engine exactly one nil check per event.
//
// The exported series follow the route.Loads contract: occupancy and
// utilization are counter-over-capacity ratios that exceed 1.0 under
// backlog.  Clamp01 bounds them for color scaling; the congestion
// heatmap (internal/figures, `figures -fig congestion`) renders them
// that way.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/mesh"
)

// DefaultInterval is the sampling interval used when Config.Interval is
// unset: one microsecond of simulated time, roughly one sample per few
// thousand events on the paper's parameters.
const DefaultInterval = time.Microsecond

// DefaultCapacity is the sample-ring capacity used when Config.Capacity
// is unset.  Once the ring is full the oldest samples are overwritten;
// Export reports how many were taken in total so truncation is never
// silent.
const DefaultCapacity = 4096

// Config parameterizes a Tracer.
type Config struct {
	// Interval is the sampling period in simulated time; boundaries are
	// exact multiples of it, so equal runs sample at identical instants.
	// 0 selects DefaultInterval.
	Interval time.Duration
	// Capacity is the sample-ring size; the ring keeps the most recent
	// Capacity samples.  0 selects DefaultCapacity.
	Capacity int
	// EventCapacity bounds the drop/resend event ring; 0 selects
	// Capacity.
	EventCapacity int
}

// EventKind classifies one traced network event.
type EventKind uint8

// The traced event kinds: a batch dropped in flight by the fault model,
// and a replacement batch re-sent from a channel source (after a drop
// or a purification failure).
const (
	Drop EventKind = iota
	Resend
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Resend:
		return "resend"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one drop or resend, stamped with simulated time and the
// canonical link index (mesh.Grid.LinkIndex) it occurred on — for a
// resend, the first link of the replacement batch's path.
type Event struct {
	At   time.Duration `json:"at"`
	Kind EventKind     `json:"kind"`
	Link int           `json:"link"`
}

// sample is one ring slot: the state of every router and link at one
// interval boundary.  The slices are allocated once by Bind and
// overwritten in place on ring wrap.
type sample struct {
	at        time.Duration
	events    uint64
	occupancy []float64
	linkUtil  []float64
}

// Source is the tracer's view into the running simulator, implemented
// by the netsim layer over its router nodes and generator resources.
// Both methods fill caller-owned slices (sized to the bound grid) and
// must not allocate.
type Source interface {
	// SampleOccupancy fills dst (one slot per tile, row-major) with the
	// routers' live queue occupancy in batches: teleporter-set jobs in
	// service or queued plus storage credits taken or waited for —
	// exactly the counters route.Loads normalizes for adaptive routing.
	SampleOccupancy(dst []float64)
	// SampleLinkBusy fills dst (one slot per link, in Grid.Links order)
	// with each link generator's cumulative unit-busy time.
	SampleLinkBusy(dst []time.Duration)
	// LinkCapacity returns the per-link generator unit count, the
	// normalizer of per-interval link utilization.
	LinkCapacity() int
}

// Live is the tracer's cheap concurrent snapshot, refreshed once per
// sample for observers on other goroutines (the distributed worker's
// heartbeat telemetry).  All fields describe the run so far.
type Live struct {
	// At is the simulated time of the latest sample.
	At time.Duration
	// Events is the engine's processed-event count at the latest sample.
	Events uint64
	// Samples is the total number of samples taken (including any that
	// have been overwritten in the ring).
	Samples uint64
	// MeanOccupancy is the mesh-wide mean router occupancy of the latest
	// sample, in batches per router.
	MeanOccupancy float64
	// Drops and Resends are the running event totals.
	Drops, Resends uint64
}

// Tracer records one run's time series.  It is driven from the engine
// goroutine (Sample, RecordDrop, RecordResend are not safe for
// concurrent use); only Live is safe to call from other goroutines
// while the run executes.  A Tracer records one run at a time: binding
// it to a new run resets all recorded state.
type Tracer struct {
	interval time.Duration
	capacity int
	evCap    int

	grid    mesh.Grid
	linkCap int
	source  Source

	samples []sample
	taken   uint64 // total samples, ring position = taken % capacity

	events  []Event
	evTaken uint64
	drops   uint64
	resends uint64

	prevBusy []time.Duration // cumulative link busy at the previous sample
	prevAt   time.Duration   // time of the previous sample (0 before the first)
	busyBuf  []time.Duration // scratch for the current sample's cumulative busy

	mu   sync.Mutex
	live Live
}

// New builds a tracer with the given configuration (zero fields select
// the defaults).  The tracer allocates its rings lazily at Bind time,
// when the mesh dimensions are known.
func New(cfg Config) *Tracer {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.EventCapacity <= 0 {
		cfg.EventCapacity = cfg.Capacity
	}
	return &Tracer{interval: cfg.Interval, capacity: cfg.Capacity, evCap: cfg.EventCapacity}
}

// Interval returns the sampling period.
func (t *Tracer) Interval() time.Duration { return t.interval }

// Bind attaches the tracer to one run: the mesh it will sample and the
// simulator-side source of its counters.  It allocates every ring slot
// up front — sampling afterwards reuses them and allocates nothing —
// and resets any previously recorded run.
func (t *Tracer) Bind(grid mesh.Grid, src Source) {
	t.grid = grid
	t.source = src
	t.linkCap = src.LinkCapacity()
	tiles, links := grid.Tiles(), grid.NumLinks()
	t.samples = make([]sample, t.capacity)
	for i := range t.samples {
		t.samples[i].occupancy = make([]float64, tiles)
		t.samples[i].linkUtil = make([]float64, links)
	}
	t.events = make([]Event, 0, t.evCap)
	t.prevBusy = make([]time.Duration, links)
	t.busyBuf = make([]time.Duration, links)
	t.taken, t.evTaken, t.drops, t.resends = 0, 0, 0, 0
	t.prevAt = 0
	t.mu.Lock()
	t.live = Live{}
	t.mu.Unlock()
}

// Sample records one interval boundary; it implements sim.Probe and is
// called by the engine with the exact boundary time and the events
// executed so far.  Steady-state cost is two counter sweeps over the
// mesh and no allocation.
func (t *Tracer) Sample(now time.Duration, processed uint64) {
	s := &t.samples[t.taken%uint64(t.capacity)]
	s.at = now
	s.events = processed
	t.source.SampleOccupancy(s.occupancy)

	// Per-link utilization over this interval: the generator busy-time
	// delta normalized by capacity × elapsed.  Like route.Loads values
	// it is a pure counter ratio — saturated links read 1.0, and the
	// first sample's longer elapsed window (from time zero) keeps it
	// bounded the same way.
	t.source.SampleLinkBusy(t.busyBuf)
	elapsed := now - t.prevAt
	denom := float64(t.linkCap) * float64(elapsed)
	for i, busy := range t.busyBuf {
		u := 0.0
		if denom > 0 {
			u = float64(busy-t.prevBusy[i]) / denom
		}
		s.linkUtil[i] = u
	}
	t.prevBusy, t.busyBuf = t.busyBuf, t.prevBusy
	t.prevAt = now
	t.taken++

	var occ float64
	for _, v := range s.occupancy {
		occ += v
	}
	t.mu.Lock()
	t.live = Live{
		At:            now,
		Events:        processed,
		Samples:       t.taken,
		MeanOccupancy: occ / float64(len(s.occupancy)),
		Drops:         t.drops,
		Resends:       t.resends,
	}
	t.mu.Unlock()
}

// RecordDrop records a batch dropped in flight on the link with the
// given canonical index.
func (t *Tracer) RecordDrop(at time.Duration, link int) {
	t.drops++
	t.record(Event{At: at, Kind: Drop, Link: link})
}

// RecordResend records a replacement batch injected on the link with
// the given canonical index (the first hop of its path).
func (t *Tracer) RecordResend(at time.Duration, link int) {
	t.resends++
	t.record(Event{At: at, Kind: Resend, Link: link})
}

// record appends into the event ring, overwriting the oldest entry once
// full.
func (t *Tracer) record(ev Event) {
	if len(t.events) < t.evCap {
		t.events = append(t.events, ev)
	} else {
		t.events[t.evTaken%uint64(t.evCap)] = ev
	}
	t.evTaken++
}

// Samples returns the number of samples currently retained in the ring.
func (t *Tracer) Samples() int {
	if t.taken < uint64(t.capacity) {
		return int(t.taken)
	}
	return t.capacity
}

// Live returns the latest concurrent snapshot.  It is the one method
// safe to call from other goroutines while the traced run executes.
func (t *Tracer) Live() Live {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.live
}

// Version is the trace export format identifier; Decode rejects any
// other value.
const Version = "qnet-trace-v1"

// Export is the compact, versioned serialization of one recorded run:
// columnar time series (one row per retained sample, oldest first) plus
// the drop/resend event log.  Equal runs export byte-identical traces.
type Export struct {
	// Version identifies the format (the Version constant).
	Version string `json:"version"`
	// GridW, GridH are the mesh dimensions; occupancy rows hold
	// GridW×GridH tiles row-major, link rows follow mesh.Grid.Links
	// order.
	GridW int `json:"grid_w"`
	GridH int `json:"grid_h"`
	// IntervalNS is the sampling period in nanoseconds of simulated
	// time.
	IntervalNS int64 `json:"interval_ns"`
	// TotalSamples counts every sample taken; when it exceeds
	// len(Times) the ring wrapped and only the most recent samples are
	// retained.
	TotalSamples uint64 `json:"total_samples"`
	// Times are the retained samples' boundary times (ns), oldest
	// first.
	Times []int64 `json:"times"`
	// Events are the engine's cumulative processed-event counts, one
	// per retained sample.
	Events []uint64 `json:"events"`
	// Occupancy is per-sample, per-tile router queue occupancy in
	// batches.  Values exceed 1 per unit of capacity under backlog —
	// clamp with Clamp01 before color-scaling.
	Occupancy [][]float64 `json:"occupancy"`
	// LinkUtil is per-sample, per-link generator utilization over the
	// preceding interval.
	LinkUtil [][]float64 `json:"link_util"`
	// TotalDrops and TotalResends are the full event totals; Drops and
	// Resends retain the most recent EventCapacity entries.
	TotalDrops   uint64  `json:"total_drops"`
	TotalResends uint64  `json:"total_resends"`
	Log          []Event `json:"log"`
}

// Export snapshots the recorded run into its serializable form.  Call
// it after the traced run completes (it is not safe concurrently with
// Sample).
func (t *Tracer) Export() *Export {
	n := t.Samples()
	ex := &Export{
		Version:      Version,
		GridW:        t.grid.Width,
		GridH:        t.grid.Height,
		IntervalNS:   int64(t.interval),
		TotalSamples: t.taken,
		Times:        make([]int64, n),
		Events:       make([]uint64, n),
		Occupancy:    make([][]float64, n),
		LinkUtil:     make([][]float64, n),
		TotalDrops:   t.drops,
		TotalResends: t.resends,
	}
	start := uint64(0)
	if t.taken > uint64(n) {
		start = t.taken - uint64(n)
	}
	for i := 0; i < n; i++ {
		s := &t.samples[(start+uint64(i))%uint64(t.capacity)]
		ex.Times[i] = int64(s.at)
		ex.Events[i] = s.events
		ex.Occupancy[i] = append([]float64(nil), s.occupancy...)
		ex.LinkUtil[i] = append([]float64(nil), s.linkUtil...)
	}
	ex.Log = make([]Event, 0, len(t.events))
	if t.evTaken > uint64(len(t.events)) {
		// Ring wrapped: unroll oldest-first.
		pos := t.evTaken % uint64(t.evCap)
		ex.Log = append(ex.Log, t.events[pos:]...)
		ex.Log = append(ex.Log, t.events[:pos]...)
	} else {
		ex.Log = append(ex.Log, t.events...)
	}
	return ex
}

// Encode writes the export as indented JSON.  The encoding is
// deterministic: equal exports produce byte-identical output.
func (ex *Export) Encode(w io.Writer) error {
	data, err := json.MarshalIndent(ex, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Decode reads an export written by Encode, rejecting unknown format
// versions.
func Decode(r io.Reader) (*Export, error) {
	var ex Export
	if err := json.NewDecoder(r).Decode(&ex); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if ex.Version != Version {
		return nil, fmt.Errorf("trace: version %q, want %q", ex.Version, Version)
	}
	return &ex, nil
}

// Clamp01 clamps a load or utilization value into [0, 1] for color and
// glyph scaling.  The router's load contract (route.Loads) reports
// queue pressure as occupancy over capacity, which exceeds 1.0 under
// backlog — a correct congestion signal for adaptive routing, but one
// that would blow a naive normalization's scale; every heatmap layer
// clamps through here instead of assuming bounded inputs.
func Clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	default:
		return v
	}
}

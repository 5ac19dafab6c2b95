// Package trace is the time-series telemetry layer of the simulator: a
// sampling tracer that observes a whole run over simulated time —
// per-router queue occupancy, per-link utilization, and the drop/resend
// events of the fault and failure layers.
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
// the event engine through the sim.Probe hook, which fires at the exact
// boundaries the tracer asks for without scheduling events, so a traced
// run executes the same events — and produces a byte-identical Result —
// as an untraced one.  That is also why the tracer is excluded from
// Machine.CacheKey.  A traced Run always simulates (a cached Result has
// nothing to observe) but still stores its result back into an attached
// cache.
//
// The series covers the whole run in bounded memory.  Each sample holds
// instantaneous readings — every tile's occupancy, every link
// generator's cumulative busy time and the events processed — at a
// multiple of the interval.  When the series holds Capacity samples and
// another is due, the tracer keeps every second sample and doubles its
// interval: what remains is exactly the series a tracer started at the
// doubled interval records, so a run of any length ends with between
// Capacity/2 and Capacity samples (fewer only if it is shorter than
// Capacity intervals).  Export derives each window's link utilization
// from the busy-time differences.  Bind allocates the series once:
// sampling allocates nothing, and a disabled tracer (no tracer attached
// at all) costs the engine exactly one nil check per event.
//
// The exported series follow the route.Loads contract: occupancy and
// utilization are counter-over-capacity ratios that exceed 1.0 under
// backlog.  The congestion heatmap (internal/figures, `figures -fig
// congestion`) clamps them when it shades a cell.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/mesh"
)

// DefaultInterval is the starting sampling interval used when
// Config.Interval is unset: one microsecond of simulated time.  A run
// longer than DefaultCapacity microseconds doubles it as often as the
// series needs.
const DefaultInterval = time.Microsecond

// DefaultCapacity is the series capacity used when Config.Capacity is
// unset: at most this many samples, and as many drop/resend events, are
// kept however long the run.
const DefaultCapacity = 4096

// Config parameterizes a Tracer.
type Config struct {
	// Interval is the starting sampling period in simulated time;
	// boundaries are exact multiples of it, so equal runs sample at
	// identical instants.  The series doubles it each time it fills.
	// 0 selects DefaultInterval.
	Interval time.Duration
	// Capacity bounds the series: when it holds Capacity samples and
	// another is due, it keeps every second one and doubles the
	// interval.  The drop/resend log keeps the most recent Capacity
	// events.  0 selects DefaultCapacity.
	Capacity int
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

// Source is the tracer's view into the running simulator, implemented
// by the netsim layer over its router nodes and generator resources.
// Both methods fill caller-owned slices (sized to the bound grid) and
// must not allocate.
type Source interface {
	// SampleOccupancy fills dst (one slot per tile, row-major) with the
	// routers' live queue occupancy in batches: teleporter-set jobs in
	// service or queued plus storage credits taken or waited for —
	// exactly the counters route.Loads normalizes for adaptive routing.
	// Occupancy changes only when an event runs, so the tracer copies
	// the previous sample's instead when none has run since.
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
	// Samples is the number of samples the series holds.
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
	start    time.Duration // the configured interval
	capacity int

	grid         mesh.Grid
	tiles, links int
	linkCap      int
	source       Source

	// The series: sample i (0 <= i < n) is the reading at
	// (i+1)·interval, row i of the flat per-sample slices.
	interval  time.Duration
	n         int
	processed []uint64        // events processed, one per sample
	occupancy []float64       // tiles per sample
	busy      []time.Duration // cumulative link busy time, links per sample

	log            []Event // drop/resend ring, logged entries in all
	logged         uint64
	drops, resends uint64

	mu   sync.Mutex
	live Live
}

// New builds a tracer with the given configuration (zero fields select
// the defaults).  The tracer allocates its series at Bind time, when
// the mesh dimensions are known.
func New(cfg Config) *Tracer {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	return &Tracer{start: cfg.Interval, interval: cfg.Interval, capacity: cfg.Capacity}
}

// Interval returns the sampling period: the configured one until the
// series first fills, then doubled at each fill.
func (t *Tracer) Interval() time.Duration { return t.interval }

// Bind attaches the tracer to one run: the mesh it will sample and the
// simulator-side source of its counters.  It allocates the series up
// front — sampling afterwards allocates nothing — and resets any
// previously recorded run, the interval included.
func (t *Tracer) Bind(grid mesh.Grid, src Source) {
	t.grid = grid
	t.tiles, t.links = grid.Tiles(), grid.NumLinks()
	t.source = src
	t.linkCap = src.LinkCapacity()
	t.interval, t.n = t.start, 0
	t.processed = make([]uint64, t.capacity)
	t.occupancy = make([]float64, t.capacity*t.tiles)
	t.busy = make([]time.Duration, t.capacity*t.links)
	t.log = make([]Event, 0, t.capacity)
	t.logged, t.drops, t.resends = 0, 0, 0
	t.mu.Lock()
	t.live = Live{}
	t.mu.Unlock()
}

// Sample records the reading at boundary now and returns the next
// boundary; it implements sim.Probe and is called by the engine with
// the events executed so far.  A full series first halves, and a
// boundary that is not a multiple of the doubled interval is skipped.
// Steady-state cost is at most two counter sweeps over the mesh and no
// allocation.
func (t *Tracer) Sample(now time.Duration, processed uint64) time.Duration {
	if t.n == t.capacity {
		t.halve()
		if next := time.Duration(t.n+1) * t.interval; now < next {
			return next
		}
	}
	occ := t.occupancy[t.n*t.tiles : (t.n+1)*t.tiles]
	if t.n > 0 && t.processed[t.n-1] == processed {
		// No event ran since the previous sample, so no router's
		// occupancy changed.
		copy(occ, t.occupancy[(t.n-1)*t.tiles:t.n*t.tiles])
	} else {
		t.source.SampleOccupancy(occ)
	}
	t.processed[t.n] = processed
	t.source.SampleLinkBusy(t.busy[t.n*t.links : (t.n+1)*t.links])
	t.n++

	var sum float64
	for _, v := range occ {
		sum += v
	}
	t.mu.Lock()
	t.live = Live{
		At:            now,
		Events:        processed,
		Samples:       uint64(t.n),
		MeanOccupancy: sum / float64(t.tiles),
		Drops:         t.drops,
		Resends:       t.resends,
	}
	t.mu.Unlock()
	return time.Duration(t.n+1) * t.interval
}

// halve keeps every second sample, the ones at multiples of twice the
// interval, and doubles the interval.
func (t *Tracer) halve() {
	tiles, links := t.tiles, t.links
	for i := 0; i < t.n/2; i++ {
		j := 2*i + 1
		t.processed[i] = t.processed[j]
		copy(t.occupancy[i*tiles:(i+1)*tiles], t.occupancy[j*tiles:(j+1)*tiles])
		copy(t.busy[i*links:(i+1)*links], t.busy[j*links:(j+1)*links])
	}
	t.n /= 2
	t.interval *= 2
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
	if len(t.log) < t.capacity {
		t.log = append(t.log, ev)
	} else {
		t.log[t.logged%uint64(t.capacity)] = ev
	}
	t.logged++
}

// Samples returns the number of samples the series holds.
func (t *Tracer) Samples() int { return t.n }

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
// columnar time series (one row per sample, oldest first) plus the
// drop/resend event log.  Equal runs export byte-identical traces.
type Export struct {
	// Version identifies the format (the Version constant).
	Version string `json:"version"`
	// GridW, GridH are the mesh dimensions; occupancy rows hold
	// GridW×GridH tiles row-major, link rows follow mesh.Grid.Links
	// order.
	GridW int `json:"grid_w"`
	GridH int `json:"grid_h"`
	// IntervalNS is the sampling period in nanoseconds of simulated
	// time: the configured interval, doubled each time the series
	// filled.
	IntervalNS int64 `json:"interval_ns"`
	// TotalSamples is the number of samples, len(Times).
	TotalSamples uint64 `json:"total_samples"`
	// Times are the samples' boundary times (ns), oldest first: the
	// multiples of the interval up to the end of the run.
	Times []int64 `json:"times"`
	// Events are the engine's cumulative processed-event counts, one
	// per sample.
	Events []uint64 `json:"events"`
	// Occupancy is per-sample, per-tile router queue occupancy in
	// batches.  Values exceed 1 per unit of capacity under backlog, so
	// clamp them before color-scaling.
	Occupancy [][]float64 `json:"occupancy"`
	// LinkUtil is per-sample, per-link generator utilization over the
	// preceding interval.
	LinkUtil [][]float64 `json:"link_util"`
	// TotalDrops and TotalResends are the full event totals; Log keeps
	// the most recent Capacity entries, oldest first.
	TotalDrops   uint64  `json:"total_drops"`
	TotalResends uint64  `json:"total_resends"`
	Log          []Event `json:"log"`
}

// Export snapshots the recorded run into its serializable form.  Call
// it after the traced run completes (it is not safe concurrently with
// Sample).
func (t *Tracer) Export() *Export {
	n, tiles, links := t.n, t.tiles, t.links
	ex := &Export{
		Version:      Version,
		GridW:        t.grid.Width,
		GridH:        t.grid.Height,
		IntervalNS:   int64(t.interval),
		TotalSamples: uint64(n),
		Times:        make([]int64, n),
		Events:       make([]uint64, n),
		Occupancy:    make([][]float64, n),
		LinkUtil:     make([][]float64, n),
		TotalDrops:   t.drops,
		TotalResends: t.resends,
	}
	copy(ex.Events, t.processed)
	occ := make([]float64, n*tiles)
	copy(occ, t.occupancy)
	util := make([]float64, n*links)
	// Per-link utilization over each window: the generator busy-time
	// delta normalized by capacity × interval.  Like route.Loads values
	// it is a pure counter ratio — saturated links read 1.0.
	denom := float64(t.linkCap) * float64(t.interval)
	for i := range n {
		ex.Times[i] = int64(time.Duration(i+1) * t.interval)
		ex.Occupancy[i] = occ[i*tiles : (i+1)*tiles : (i+1)*tiles]
		row := util[i*links : (i+1)*links : (i+1)*links]
		for l := range row {
			d := t.busy[i*links+l]
			if i > 0 {
				d -= t.busy[(i-1)*links+l]
			}
			if denom > 0 {
				row[l] = float64(d) / denom
			}
		}
		ex.LinkUtil[i] = row
	}
	// The log ring, oldest first: until it wraps, pos is len(t.log).
	pos := t.logged % uint64(t.capacity)
	ex.Log = make([]Event, 0, len(t.log))
	ex.Log = append(ex.Log, t.log[pos:]...)
	ex.Log = append(ex.Log, t.log[:pos]...)
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

package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/mesh"
)

// fakeSource is a deterministic stand-in for the netsim counters.
type fakeSource struct {
	occ     []float64
	busy    []time.Duration
	linkCap int
}

func (f *fakeSource) SampleOccupancy(dst []float64)      { copy(dst, f.occ) }
func (f *fakeSource) SampleLinkBusy(dst []time.Duration) { copy(dst, f.busy) }
func (f *fakeSource) LinkCapacity() int                  { return f.linkCap }

// newBound builds a tracer bound to a 2x2 mesh (4 tiles, 4 links) over
// the given source.
func newBound(t *testing.T, cfg Config, src *fakeSource) *Tracer {
	t.Helper()
	grid, err := mesh.NewGrid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(cfg)
	tr.Bind(grid, src)
	return tr
}

// TestSampleSeries pins the sampling math: occupancy is copied through,
// and link utilization is the busy-time delta over capacity x elapsed.
func TestSampleSeries(t *testing.T) {
	src := &fakeSource{
		occ:     []float64{1, 0, 2, 0},
		busy:    []time.Duration{time.Microsecond, 0, 0, 0},
		linkCap: 2,
	}
	tr := newBound(t, Config{Interval: time.Microsecond}, src)

	if next := tr.Sample(time.Microsecond, 100); next != 2*time.Microsecond {
		t.Errorf("Sample(1µs) asked for %v next, want 2µs", next)
	}
	// Link 0 was busy 1µs of a 1µs window with 2 units: utilization 0.5.
	src.busy[0] = 3 * time.Microsecond // +2µs over the next 1µs window: saturated
	src.occ[0] = 5
	tr.Sample(2*time.Microsecond, 250)

	ex := tr.Export()
	if ex.Version != Version || ex.GridW != 2 || ex.GridH != 2 {
		t.Fatalf("export header = %q %dx%d", ex.Version, ex.GridW, ex.GridH)
	}
	if want := []int64{1000, 2000}; !reflect.DeepEqual(ex.Times, want) {
		t.Errorf("Times = %v, want %v", ex.Times, want)
	}
	if want := []uint64{100, 250}; !reflect.DeepEqual(ex.Events, want) {
		t.Errorf("Events = %v, want %v", ex.Events, want)
	}
	if got := ex.Occupancy[1][0]; got != 5 {
		t.Errorf("Occupancy[1][0] = %v, want 5", got)
	}
	if got := ex.LinkUtil[0][0]; got != 0.5 {
		t.Errorf("first-window utilization = %v, want 0.5", got)
	}
	if got := ex.LinkUtil[1][0]; got != 1.0 {
		t.Errorf("second-window utilization = %v, want 1.0", got)
	}
	if got := ex.LinkUtil[1][1]; got != 0 {
		t.Errorf("idle link utilization = %v, want 0", got)
	}
}

// clockSource is a fake source whose readings are functions of the
// simulated time alone, so two tracers sampling it at different
// intervals read the same values at every boundary they share.  Its
// events run every 7ns, and occupancy, like a router's, changes only
// when one runs.
type clockSource struct {
	now  time.Duration
	occ  func(events uint64, tile int) float64
	busy func(now time.Duration, link int) time.Duration
}

// events is the count of events run before now.
func (c *clockSource) events() uint64 { return uint64(c.now / 7) }

func (c *clockSource) SampleOccupancy(dst []float64) {
	for i := range dst {
		dst[i] = c.occ(c.events(), i)
	}
}

func (c *clockSource) SampleLinkBusy(dst []time.Duration) {
	for i := range dst {
		dst[i] = c.busy(c.now, i)
	}
}

func (c *clockSource) LinkCapacity() int { return 3 }

// drive plays the engine's part: it samples every boundary the tracer
// asks for up to end, with an event count that grows with time.
func drive(t *testing.T, tr *Tracer, src *clockSource, end time.Duration) {
	t.Helper()
	for next := tr.Interval(); next <= end; {
		src.now = next
		after := tr.Sample(next, src.events())
		if after <= next {
			t.Fatalf("Sample(%v) asked for %v next", next, after)
		}
		next = after
	}
}

// TestHalvingMatchesDoubledInterval pins the series contract: a tracer
// whose series filled and halved k times exports exactly what a tracer
// started at 2^k times its interval exports, at odd and even capacities
// down to 2, and holds between Capacity/2 and Capacity samples once it
// has halved.
func TestHalvingMatchesDoubledInterval(t *testing.T) {
	grid, err := mesh.NewGrid(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]*clockSource{
		"ramp": {
			occ:  func(n uint64, i int) float64 { return float64(n%uint64(5+i)) / 4 },
			busy: func(now time.Duration, l int) time.Duration { return now * time.Duration(l%3) / 2 },
		},
		"bursts": {
			occ: func(n uint64, i int) float64 {
				if (n/150+uint64(i))%3 == 0 {
					return 2.5
				}
				return 0
			},
			busy: func(now time.Duration, l int) time.Duration {
				// Busy in the first 400ns of every 1µs, on every link.
				whole, part := now/1000, now%1000
				return 3 * (whole*400 + min(part, 400)) * time.Duration(1+l%2) / 2
			},
		},
		"idle": {
			occ:  func(uint64, int) float64 { return 0 },
			busy: func(time.Duration, int) time.Duration { return 0 },
		},
	}
	halved := 0
	for name, src := range series {
		for _, iv := range []time.Duration{1, 3, 250, time.Microsecond} {
			for _, capacity := range []int{2, 3, 4, 5, 7, 16} {
				for _, end := range []time.Duration{iv, 5 * iv, 17 * iv, 64*iv + iv/2, 1000 * iv} {
					tr := New(Config{Interval: iv, Capacity: capacity})
					tr.Bind(grid, src)
					drive(t, tr, src, end)
					ex := tr.Export()
					k := 0
					for iv<<k < tr.Interval() {
						k++
					}
					if iv<<k != tr.Interval() {
						t.Fatalf("%s iv=%v cap=%d end=%v: interval %v is not a doubling", name, iv, capacity, end, tr.Interval())
					}
					if n := len(ex.Times); n > capacity || (k > 0 && 2*n < capacity) || int(ex.TotalSamples) != n {
						t.Errorf("%s iv=%v cap=%d end=%v: %d samples (total %d) after %d halvings",
							name, iv, capacity, end, n, ex.TotalSamples, k)
					}
					if k > 0 {
						halved++
					}
					ref := New(Config{Interval: iv << k, Capacity: capacity})
					ref.Bind(grid, src)
					drive(t, ref, src, end)
					if want := ref.Export(); !reflect.DeepEqual(ex, want) {
						t.Errorf("%s iv=%v cap=%d end=%v: halved %d times, export differs from a tracer started at %v:\n got %+v\nwant %+v",
							name, iv, capacity, end, k, iv<<k, ex, want)
					}
				}
			}
		}
	}
	if halved == 0 {
		t.Fatal("no case halved its series")
	}
}

// TestEventRingWrap pins the drop/resend log's ring: totals keep
// counting while the log retains the most recent entries oldest-first.
func TestEventRingWrap(t *testing.T) {
	src := &fakeSource{occ: make([]float64, 4), busy: make([]time.Duration, 4), linkCap: 1}
	tr := newBound(t, Config{Interval: time.Microsecond, Capacity: 3}, src)
	tr.RecordDrop(1*time.Microsecond, 0)
	tr.RecordResend(2*time.Microsecond, 1)
	tr.RecordDrop(3*time.Microsecond, 2)
	tr.RecordResend(4*time.Microsecond, 3)
	tr.RecordDrop(5*time.Microsecond, 0)

	ex := tr.Export()
	if ex.TotalDrops != 3 || ex.TotalResends != 2 {
		t.Errorf("totals = %d drops, %d resends, want 3, 2", ex.TotalDrops, ex.TotalResends)
	}
	want := []Event{
		{At: 3 * time.Microsecond, Kind: Drop, Link: 2},
		{At: 4 * time.Microsecond, Kind: Resend, Link: 3},
		{At: 5 * time.Microsecond, Kind: Drop, Link: 0},
	}
	if !reflect.DeepEqual(ex.Log, want) {
		t.Errorf("Log = %v, want %v", ex.Log, want)
	}
}

// TestLiveSnapshot pins the concurrent snapshot's contents.
func TestLiveSnapshot(t *testing.T) {
	src := &fakeSource{occ: []float64{2, 4, 0, 2}, busy: make([]time.Duration, 4), linkCap: 1}
	tr := newBound(t, Config{Interval: time.Microsecond}, src)
	if lv := tr.Live(); lv != (Live{}) {
		t.Fatalf("pre-sample Live = %+v, want zero", lv)
	}
	tr.RecordDrop(500*time.Nanosecond, 1)
	tr.Sample(time.Microsecond, 42)
	lv := tr.Live()
	want := Live{At: time.Microsecond, Events: 42, Samples: 1, MeanOccupancy: 2, Drops: 1}
	if lv != want {
		t.Errorf("Live = %+v, want %+v", lv, want)
	}
}

// TestBindResets pins that rebinding a tracer to a new run clears every
// recorded series, the doubled interval included — a tracer records one
// run at a time.
func TestBindResets(t *testing.T) {
	src := &fakeSource{occ: make([]float64, 4), busy: make([]time.Duration, 4), linkCap: 1}
	tr := newBound(t, Config{Interval: time.Microsecond, Capacity: 2}, src)
	for at := time.Microsecond; at <= 3*time.Microsecond; at += time.Microsecond {
		tr.Sample(at, 10)
	}
	if tr.Interval() != 2*time.Microsecond {
		t.Fatalf("interval %v after the series filled, want 2µs", tr.Interval())
	}
	tr.RecordDrop(time.Microsecond, 0)

	grid, err := mesh.NewGrid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr.Bind(grid, src)
	if got := tr.Samples(); got != 0 {
		t.Errorf("Samples() after rebind = %d, want 0", got)
	}
	if tr.Interval() != time.Microsecond {
		t.Errorf("interval after rebind = %v, want the configured 1µs", tr.Interval())
	}
	ex := tr.Export()
	if ex.TotalSamples != 0 || ex.TotalDrops != 0 || len(ex.Log) != 0 {
		t.Errorf("rebind kept state: %d samples, %d drops, %d log entries",
			ex.TotalSamples, ex.TotalDrops, len(ex.Log))
	}
	if lv := tr.Live(); lv != (Live{}) {
		t.Errorf("Live after rebind = %+v, want zero", lv)
	}
}

// TestExportRoundTrip pins the serialization: Encode → Decode preserves
// the export, and re-encoding is byte-identical (the determinism the
// trace parity tests lean on).
func TestExportRoundTrip(t *testing.T) {
	src := &fakeSource{
		occ:     []float64{1.5, 0, 0.25, 3},
		busy:    []time.Duration{time.Microsecond, 0, 500 * time.Nanosecond, 0},
		linkCap: 2,
	}
	tr := newBound(t, Config{Interval: time.Microsecond}, src)
	tr.Sample(time.Microsecond, 7)
	tr.RecordResend(1500*time.Nanosecond, 2)
	tr.Sample(2*time.Microsecond, 19)
	ex := tr.Export()

	var buf bytes.Buffer
	if err := ex.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	dec, err := Decode(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, ex) {
		t.Errorf("decoded export differs:\n got %+v\nwant %+v", dec, ex)
	}
	var buf2 bytes.Buffer
	if err := dec.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Error("re-encoded export is not byte-identical")
	}
}

// TestDecodeRejectsVersion pins the format gate.
func TestDecodeRejectsVersion(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"version":"qnet-trace-v0"}`)); err == nil {
		t.Error("Decode accepted an unknown version")
	}
	if _, err := Decode(strings.NewReader(`{`)); err == nil {
		t.Error("Decode accepted malformed JSON")
	}
}

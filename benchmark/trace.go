package main

// Spans are recorded here, in the benchmark, around the calls it makes
// into the program and inside the two interfaces the program lets a
// caller plug in: simulate.Store and route.Policy.  The program itself
// carries no tracing.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/qnet"
	"repro/qnet/route"
	"repro/qnet/simulate"
)

// span is one timed interval.  Start and End are nanoseconds since the
// recorder's epoch; Parent indexes the recorder's span list (-1 for an
// op's root span); Op numbers the traced op the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder holds every span of a traced run in memory until the run
// ends.  It is safe for concurrent use: sweep workers and HTTP handlers
// record from their own goroutines.
type recorder struct {
	epoch time.Time
	// scope is the span new wrapper spans hang under: the enclosing
	// call into the program (Machine.Run, Sweep, Coordinator.Sweep).
	scope atomic.Int64
	op    atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.scope.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a finished span under the current scope.
func (r *recorder) add(name string, start, end int64) {
	r.addUnder(name, int(r.scope.Load()), start, end)
}

func (r *recorder) addUnder(name string, parent int, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: int(r.op.Load())})
	return len(r.spans) - 1
}

// open starts a span whose end is filled in by close; wrapper spans
// recorded in between hang under it.
func (r *recorder) open(name string) int {
	id := r.addUnder(name, int(r.scope.Load()), r.now(), 0)
	r.scope.Store(int64(id))
	return id
}

func (r *recorder) close(id int) {
	end := r.now()
	r.mu.Lock()
	r.spans[id].End = end
	parent := r.spans[id].Parent
	r.mu.Unlock()
	r.scope.Store(int64(parent))
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile stores the spans as JSON.
func (r *recorder) writeFile(path, workload string) error {
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, r.snapshot()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// unionLen returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once.
func unionLen(intervals [][2]int64, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(intervals))
	for _, in := range intervals {
		s, e := max(in[0], lo), min(in[1], hi)
		if s < e {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, in := range iv {
		switch {
		case i == 0:
			curS, curE = in[0], in[1]
		case in[0] > curE:
			total += curE - curS
			curS, curE = in[0], in[1]
		case in[1] > curE:
			curE = in[1]
		}
	}
	if len(iv) > 0 {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it that its
// children's intervals cover.
func selfTime(s span, children [][2]int64) int64 {
	return s.dur() - unionLen(children, s.Start, s.End)
}

// timedStore is a simulate.Store that forwards to another store and,
// while a recorder is attached, records a span around every Get and
// Put.  With points set it also records each point's simulation: the
// interval from a Get miss to the Put of the same key, which is how a
// sweep worker spends a point it has to compute.
type timedStore struct {
	name   string
	points bool
	inner  atomic.Pointer[simulate.Store]
	rec    atomic.Pointer[recorder]

	mu     sync.Mutex
	missAt map[simulate.Key]int64
}

func newTimedStore(name string, inner simulate.Store, points bool) *timedStore {
	s := &timedStore{name: name, points: points, missAt: make(map[simulate.Key]int64)}
	s.setInner(inner)
	return s
}

// setInner swaps the store calls are forwarded to; the benchmark does
// so only between ops.
func (s *timedStore) setInner(st simulate.Store) { s.inner.Store(&st) }

func (s *timedStore) Get(k simulate.Key) (simulate.Result, bool) {
	inner := *s.inner.Load()
	r := s.rec.Load()
	if r == nil {
		return inner.Get(k)
	}
	start := r.now()
	res, ok := inner.Get(k)
	end := r.now()
	r.add(s.name+".get", start, end)
	if !ok && s.points {
		s.mu.Lock()
		s.missAt[k] = start
		s.mu.Unlock()
	}
	return res, ok
}

func (s *timedStore) Put(k simulate.Key, res simulate.Result) {
	inner := *s.inner.Load()
	r := s.rec.Load()
	if r == nil {
		inner.Put(k, res)
		return
	}
	start := r.now()
	inner.Put(k, res)
	end := r.now()
	r.add(s.name+".put", start, end)
	if s.points {
		s.mu.Lock()
		missed, ok := s.missAt[k]
		delete(s.missAt, k)
		s.mu.Unlock()
		if ok {
			r.add("simulate.point", missed, end)
		}
	}
}

func (s *timedStore) Stats() simulate.CacheStats { return (*s.inner.Load()).Stats() }

// timedPolicy is a route.Policy that records a span around every Route
// call of the policy it wraps.  It forwards Name and Deterministic, so
// cache keys and the simulator's route cache treat it exactly like the
// inner policy.
type timedPolicy struct {
	inner route.Policy
	rec   *recorder
}

// timedFaultPolicy adds the route.FaultAware capability, for inner
// policies that have it; the simulator picks its fault path by type.
type timedFaultPolicy struct{ timedPolicy }

// tracedPolicy wraps p (nil meaning the default policy) for rec.
func tracedPolicy(p route.Policy, rec *recorder) route.Policy {
	if p == nil {
		p = route.Default()
	}
	tp := timedPolicy{inner: p, rec: rec}
	if _, ok := p.(route.FaultAware); ok {
		return timedFaultPolicy{tp}
	}
	return tp
}

func (p timedPolicy) Name() string        { return p.inner.Name() }
func (p timedPolicy) Deterministic() bool { return route.IsDeterministic(p.inner) }

func (p timedPolicy) Route(g qnet.Grid, src, dst route.Coord, loads route.Loads) ([]route.Direction, error) {
	start := p.rec.now()
	dirs, err := p.inner.Route(g, src, dst, loads)
	p.rec.add("route.Route", start, p.rec.now())
	return dirs, err
}

func (p timedFaultPolicy) RouteFaulty(g qnet.Grid, src, dst route.Coord, f route.Faults, loads route.Loads) ([]route.Direction, error) {
	start := p.rec.now()
	dirs, err := p.inner.(route.FaultAware).RouteFaulty(g, src, dst, f, loads)
	p.rec.add("route.Route", start, p.rec.now())
	return dirs, err
}

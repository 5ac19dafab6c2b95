package simulate

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/qnet"
	"repro/qnet/fault"
	"repro/qnet/route"
)

// goldenKeyConfig is the fixed configuration pinned by the golden-key
// test below.
func goldenKeyConfig(t testing.TB) (*Machine, qnet.Program) {
	t.Helper()
	grid, err := qnet.NewGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(grid, HomeBase,
		WithResources(16, 16, 8),
		WithPurifyDepth(3),
		WithSeed(7),
		WithFailureRate(0.125))
	if err != nil {
		t.Fatal(err)
	}
	return m, qnet.QFT(16)
}

// goldenKey pins the canonical serialization: any change to the hash
// format (field order, encoding, version string) must change keyVersion
// and update this constant, because it invalidates every on-disk store.
const goldenKey = "d7d5f4cc478a76335c435731b79c8b642c4583a2e85acebf88a5b2eced262c6e"

// keyQFT64 is the 8x8 HomeBase QFT-64 machine and program: 2,016 ops,
// so its key's byte stream spans hundreds of hash blocks.
func keyQFT64(t testing.TB) (*Machine, qnet.Program) {
	t.Helper()
	grid, err := qnet.NewGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(grid, HomeBase, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	return m, qnet.QFT(64)
}

// TestKeyGolden asserts the content hash of fixed configurations is
// stable across processes and runs — the property that makes the
// on-disk store valid across invocations.  Together the cases cover
// every field kind the key hashes: failure injection with a seed, a
// non-default routing policy with a fault spec and a degraded region,
// and a failure-free run whose seed canonicalizes to 0.
func TestKeyGolden(t *testing.T) {
	grid4, err := qnet.NewGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		build func(testing.TB) (*Machine, qnet.Program)
		want  string
	}{
		{"4x4 HomeBase QFT-16, failure injection", goldenKeyConfig, goldenKey},
		{"4x4 MobileQubit ModMult-8, zigzag, faults", func(t testing.TB) (*Machine, qnet.Program) {
			m, err := New(grid4, MobileQubit, WithRouting(route.ZigZag()), WithSeed(3),
				WithFaults(fault.Spec{DeadLinks: 0.1, Drop: 0.005,
					Regions: []fault.Region{{X: 0, Y: 0, W: 2, H: 2, Drop: 0.25}}}))
			if err != nil {
				t.Fatal(err)
			}
			return m, qnet.ModMult(8)
		}, "1949570f291b39ef4fcfbbc4bcb2f65573d44647c69e4bb51d6e162b286d5263"},
		{"8x8 HomeBase QFT-64, no failures", keyQFT64,
			"67dfbce236fb52d8706c8e7562907af8f20ed5a356eaf989fc08e51953753c80"},
	} {
		m, prog := tc.build(t)
		if got := m.CacheKey(prog).String(); got != tc.want {
			t.Errorf("%s: golden key drifted:\n got  %s\n want %s\n"+
				"(if the key format changed intentionally, bump keyVersion and update the golden keys)",
				tc.name, got, tc.want)
		}
	}
}

// TestKeyStableAcrossConstructions asserts the key is a pure function
// of the resolved configuration: machines built with options in
// different orders, or rebuilt from scratch, hash identically.  The
// hash never iterates a Go map, so repeated in-process computation (one
// map-ordering roll per run of this test) must agree too.
func TestKeyStableAcrossConstructions(t *testing.T) {
	grid, err := qnet.NewGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	prog := qnet.QFT(16)
	a, err := New(grid, HomeBase, WithResources(16, 16, 8), WithPurifyDepth(3), WithSeed(7), WithFailureRate(0.125))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(grid, HomeBase, WithFailureRate(0.125), WithSeed(7), WithPurifyDepth(3), WithResources(16, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	if a.CacheKey(prog) != b.CacheKey(prog) {
		t.Error("option order leaked into the content hash")
	}
	for i := 0; i < 100; i++ {
		if a.CacheKey(prog) != a.CacheKey(prog) {
			t.Fatal("repeated key computation disagrees")
		}
	}
}

// TestKeySensitivity asserts every dimension of the run point is
// covered by the hash, and that the seed is canonicalized away exactly
// when failure injection is off.
func TestKeySensitivity(t *testing.T) {
	grid, err := qnet.NewGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	prog := qnet.QFT(16)
	build := func(opts ...Option) Key {
		t.Helper()
		m, err := New(grid, HomeBase, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return m.CacheKey(prog)
	}
	base := build(WithResources(16, 16, 8))
	distinct := map[string]Key{
		"resources":    build(WithResources(16, 16, 4)),
		"depth":        build(WithResources(16, 16, 8), WithPurifyDepth(4)),
		"code level":   build(WithResources(16, 16, 8), WithCodeLevel(1)),
		"hop cells":    build(WithResources(16, 16, 8), WithHopCells(400)),
		"turn cells":   build(WithResources(16, 16, 8), WithTurnCells(0)),
		"failure rate": build(WithResources(16, 16, 8), WithFailureRate(0.5)),
		"params":       build(WithResources(16, 16, 8), WithParams(qnet.IonTrap2006().Scale(10))),
		"routing":      build(WithResources(16, 16, 8), WithRouting(route.YXOrder())),
		"dead links":   build(WithResources(16, 16, 8), WithFaults(fault.Spec{DeadLinks: 0.1})),
		"link drop":    build(WithResources(16, 16, 8), WithFaults(fault.Spec{Drop: 0.05})),
		"fault region": build(WithResources(16, 16, 8), WithFaults(fault.Spec{
			Regions: []fault.Region{{X: 0, Y: 0, W: 2, H: 2, Drop: 0.2}},
		})),
	}
	// The explicit default policy and the nil default canonicalize to
	// the same name, so they must share a key: they route identically.
	if k := build(WithResources(16, 16, 8), WithRouting(route.XYOrder())); k != base {
		t.Error("explicit XYOrder and the nil default hash differently")
	}
	for dim, k := range distinct {
		if k == base {
			t.Errorf("changing %s did not change the key", dim)
		}
	}
	m, err := New(grid, HomeBase, WithResources(16, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheKey(qnet.ModMult(8)) == base {
		t.Error("changing the program did not change the key")
	}

	// Deterministic runs: the seed must canonicalize away.
	if build(WithResources(16, 16, 8), WithSeed(1)) != build(WithResources(16, 16, 8), WithSeed(2)) {
		t.Error("seed leaked into the key of a failure-free (deterministic) run")
	}
	// Stochastic runs: the seed must matter.
	if build(WithResources(16, 16, 8), WithFailureRate(0.5), WithSeed(1)) ==
		build(WithResources(16, 16, 8), WithFailureRate(0.5), WithSeed(2)) {
		t.Error("seed ignored in the key of a stochastic run")
	}
	// Faulty runs draw their fault pattern from the seed, so the seed
	// must matter even with failure injection off.
	faulty := fault.Spec{DeadLinks: 0.1}
	if build(WithResources(16, 16, 8), WithFaults(faulty), WithSeed(1)) ==
		build(WithResources(16, 16, 8), WithFaults(faulty), WithSeed(2)) {
		t.Error("seed ignored in the key of a faulty-mesh run")
	}
}

// TestSweepSecondRunFullyCached asserts the headline cache property: a
// second identical sweep against the same on-disk store performs zero
// simulations (100% hits) and returns byte-identical results.
func TestSweepSecondRunFullyCached(t *testing.T) {
	dir := t.TempDir()
	space := test2x2x2Space(t)
	ctx := context.Background()

	run := func() ([]SweepPoint, Summary) {
		t.Helper()
		// A fresh Cache per run, so hits can only come from the disk
		// store — the cross-process path.
		cache, err := NewDiskCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		points, err := Sweep(ctx, space, WithCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		return points, Summarize(points)
	}

	cold, coldSummary := run()
	if coldSummary.CacheHits != 0 {
		t.Fatalf("cold run reported %d cache hits", coldSummary.CacheHits)
	}
	warm, warmSummary := run()
	if warmSummary.CacheHits != warmSummary.Points {
		t.Fatalf("warm run: %v, want 100%% cache hits", warmSummary)
	}
	if len(warm) != len(cold) {
		t.Fatalf("point counts differ: %d vs %d", len(warm), len(cold))
	}
	for i := range cold {
		if warm[i].Result != cold[i].Result {
			t.Errorf("point %d differs between cold and warm run:\n cold %+v\n warm %+v",
				i, cold[i].Result, warm[i].Result)
		}
		// Byte-identical through the JSON store and back.
		coldJSON, err := json.Marshal(cold[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		warmJSON, err := json.Marshal(warm[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		if string(coldJSON) != string(warmJSON) {
			t.Errorf("point %d JSON differs:\n cold %s\n warm %s", i, coldJSON, warmJSON)
		}
	}
}

// TestSweepCollapsedEnsembleCounters asserts the single-flight path:
// a multi-seed ensemble of a deterministic (failure-free) point shares
// one content key, so however the workers interleave, exactly one run
// simulates and the counters are a pure function of the space — whether
// the cache is a sweep option or reaches the machines through
// Space.Options.
func TestSweepCollapsedEnsembleCounters(t *testing.T) {
	grid, err := qnet.NewGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	space := Space{
		Grids:     []qnet.Grid{grid},
		Layouts:   []Layout{HomeBase},
		Resources: []Resources{{Teleporters: 16, Generators: 16, Purifiers: 8}},
		Programs:  []qnet.Program{qnet.QFT(grid.Tiles())},
		Seeds:     []int64{1, 2, 3, 4},
	}
	for _, via := range []string{"sweep option", "Space.Options"} {
		for trial := 0; trial < 5; trial++ {
			cache := NewCache(0)
			sp, opts := space, []SweepOption{WithWorkers(4)}
			if via == "sweep option" {
				opts = append(opts, WithCache(cache))
			} else {
				sp.Options = []Option{WithCache(cache)}
			}
			points, err := Sweep(context.Background(), sp, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if s := Summarize(points); s.CacheHits != 3 {
				t.Fatalf("%s, trial %d: %v, want exactly 3 hits (4 seeds, 1 unique key)", via, trial, s)
			}
			if s := cache.Stats(); s.Hits != 3 || s.Misses != 1 {
				t.Fatalf("%s, trial %d: cache counters %v, want 3 hits / 1 miss", via, trial, s)
			}
			for i := 1; i < len(points); i++ {
				if points[i].Result != points[0].Result {
					t.Fatalf("%s, trial %d: collapsed seeds disagree", via, trial)
				}
			}
		}
	}
}

// rendezvousStore wraps a Store so the first Get of each key waits, up
// to timeout, until want distinct keys have been looked up.  A sweep
// that runs its distinct keys side by side meets at once; one that
// parks a worker behind another key's flight leaves the first lookup
// waiting out the timeout, which is recorded.
type rendezvousStore struct {
	Store
	want    int
	timeout time.Duration

	mu       sync.Mutex
	seen     map[Key]bool
	met      chan struct{} // closed once want keys have been looked up
	timedOut bool
}

func newRendezvousStore(st Store, want int, timeout time.Duration) *rendezvousStore {
	return &rendezvousStore{Store: st, want: want, timeout: timeout, seen: make(map[Key]bool), met: make(chan struct{})}
}

func (s *rendezvousStore) Get(k Key) (Result, bool) {
	s.mu.Lock()
	first := !s.seen[k]
	if first {
		s.seen[k] = true
		if len(s.seen) == s.want {
			close(s.met)
		}
	}
	s.mu.Unlock()
	if first {
		select {
		case <-s.met:
		case <-time.After(s.timeout):
			s.mu.Lock()
			s.timedOut = true
			s.mu.Unlock()
		}
	}
	return s.Store.Get(k)
}

// TestSweepRunsDistinctKeysConcurrently asserts the dispatch order: a
// failure-free space of 2 allocations × 3 seeds has 2 distinct keys,
// and with 2 workers both keys must be looked up (and simulated) at
// once.  Fed in index order, the second worker would take a duplicate
// seed of the first key and wait for that key's run, leaving the store
// waiting out its timeout.
func TestSweepRunsDistinctKeysConcurrently(t *testing.T) {
	grid := testGrid(t, 3)
	space := Space{
		Grids:   []qnet.Grid{grid},
		Layouts: []Layout{HomeBase},
		Resources: []Resources{
			{Teleporters: 16, Generators: 16, Purifiers: 8},
			{Teleporters: 8, Generators: 8, Purifiers: 4},
		},
		Programs: []qnet.Program{qnet.QFT(grid.Tiles())},
		Seeds:    []int64{1, 2, 3},
	}
	for _, via := range []string{"sweep option", "Space.Options"} {
		cache := NewCache(0)
		st := newRendezvousStore(cache, 2, 3*time.Second)
		sp, opts := space, []SweepOption{WithWorkers(2)}
		if via == "sweep option" {
			opts = append(opts, WithStore(st))
		} else {
			sp.Options = []Option{WithStore(st)}
		}
		points, err := Sweep(context.Background(), sp, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if st.timedOut {
			t.Errorf("%s: a worker waited on a duplicate while a distinct key was left to run", via)
		}
		if s := Summarize(points); s.CacheHits != 4 || s.Failed != 0 {
			t.Errorf("%s: %v, want 4 hits and no failures", via, s)
		}
		if s := cache.Stats(); s.Hits != 4 || s.Misses != 2 {
			t.Errorf("%s: cache counters %v, want 4 hits / 2 misses", via, s)
		}
	}
}

// TestWithCacheDirOption asserts a disk cache opened on a nested,
// not-yet-existing directory creates it and serves a second sweep, on a
// fresh cache over the same directory, entirely from disk — the path
// behind the commands' -cache-dir flags.
func TestWithCacheDirOption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	space := test2x2x2Space(t)
	ctx := context.Background()
	sweep := func() []SweepPoint {
		t.Helper()
		cache, err := NewDiskCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		points, err := Sweep(ctx, space, WithCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	sweep()
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("cache dir not populated: %v (entries %d)", err, len(entries))
	}
	if s := Summarize(sweep()); s.CacheHits != s.Points {
		t.Errorf("second disk-cache sweep: %v, want all hits", s)
	}
}

// TestWithCacheNilAttachesNoStore asserts a nil *Cache attaches nothing,
// as WithTrace(nil) attaches no tracer: a machine and a sweep built with
// WithCache(nil) simulate every run instead of dereferencing the nil
// cache.
func TestWithCacheNilAttachesNoStore(t *testing.T) {
	grid := testGrid(t, 4)
	prog := qnet.QFT(grid.Tiles())
	m, err := New(grid, HomeBase, WithCache(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background(), prog); err != nil {
		t.Fatal(err)
	}
	if m.Store() != nil || m.Cache() != nil {
		t.Errorf("WithCache(nil) attached a store: %v", m.Store())
	}
	space := Space{
		Grids:     []qnet.Grid{grid},
		Layouts:   []Layout{HomeBase},
		Resources: []Resources{{Teleporters: 16, Generators: 16, Purifiers: 16}},
		Programs:  []qnet.Program{prog},
		Options:   []Option{WithCache(nil)},
	}
	points, err := Sweep(context.Background(), space, WithCache(nil))
	if err != nil {
		t.Fatal(err)
	}
	if s := Summarize(points); s.Points != 1 || s.CacheHits != 0 || s.Failed != 0 {
		t.Errorf("WithCache(nil) sweep: %v, want 1 simulated point", s)
	}
}

// TestCacheLRUEviction asserts the in-memory store honors its capacity
// bound, evicting least-recently-used entries first.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	k := func(b byte) Key { var k Key; k[0] = b; return k }
	c.Put(k(1), Result{Ops: 1})
	c.Put(k(2), Result{Ops: 2})
	if _, ok := c.Get(k(1)); !ok { // touch 1: now 2 is LRU
		t.Fatal("entry 1 missing")
	}
	c.Put(k(3), Result{Ops: 3}) // evicts 2
	if _, ok := c.Get(k(2)); ok {
		t.Error("LRU entry 2 not evicted")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Error("recently used entry 1 evicted")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
	s := c.Stats()
	if s.Entries != 2 || s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 2 entries, 2 hits, 1 miss", s)
	}
}

// TestCacheCorruptDiskEntry asserts an unreadable stored result is a
// miss, not an error — but a counted miss: CorruptEntries must record
// it, and both CacheStats and a store-aware Summary must surface it,
// so operators of fleet-shared stores can tell rot from cold.
func TestCacheCorruptDiskEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var k Key
	k[0] = 9
	c.Put(k, Result{Ops: 42})
	if err := os.WriteFile(filepath.Join(dir, k.String()+".json"), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Fresh cache, so the lookup must go to disk.
	c2, err := NewDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(k); ok {
		t.Error("corrupt entry served as a hit")
	}
	stats := c2.Stats()
	if stats.CorruptEntries != 1 {
		t.Fatalf("CorruptEntries = %d, want 1", stats.CorruptEntries)
	}
	if stats.Misses != 1 {
		t.Fatalf("Misses = %d, want 1 (corrupt entries degrade to misses)", stats.Misses)
	}
	if s := stats.String(); !strings.Contains(s, "1 corrupt") {
		t.Fatalf("CacheStats.String() hides corruption: %q", s)
	}
	sum := SummarizeStore(nil, c2)
	if sum.CorruptEntries != 1 {
		t.Fatalf("SummarizeStore.CorruptEntries = %d, want 1", sum.CorruptEntries)
	}
	if s := sum.String(); !strings.Contains(s, "1 corrupt store entries") {
		t.Fatalf("Summary.String() hides corruption: %q", s)
	}
	// A healthy summary stays unchanged.
	if s := Summarize(nil).String(); strings.Contains(s, "corrupt") {
		t.Fatalf("healthy summary mentions corruption: %q", s)
	}
}

// TestCacheRoundTripExact asserts a Result survives the JSON store
// bit-exactly, floats included.
func TestCacheRoundTripExact(t *testing.T) {
	m, prog := goldenKeyConfig(t)
	res, err := m.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := NewDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := m.CacheKey(prog)
	c.Put(key, res)
	c2, err := NewDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok {
		t.Fatal("stored result missing from disk store")
	}
	if got != res {
		t.Errorf("disk round trip not exact:\n put %+v\n got %+v", res, got)
	}
}

package distrib

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/qnet/simulate"
)

// recordingTransport wraps a Transport and records every dispatched
// shard's point indices, so a test can prove which work was (and was
// not) re-dispatched.
type recordingTransport struct {
	Transport
	mu         sync.Mutex
	dispatched [][]int
}

// Run records the job's indices, then forwards.
func (rt *recordingTransport) Run(ctx context.Context, worker string, job Job, emit func(PointResult) error) error {
	rt.mu.Lock()
	rt.dispatched = append(rt.dispatched, append([]int(nil), job.Indices...))
	rt.mu.Unlock()
	return rt.Transport.Run(ctx, worker, job, emit)
}

// dispatchedIndices returns the set of every point index dispatched.
func (rt *recordingTransport) dispatchedIndices() map[int]bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[int]bool)
	for _, indices := range rt.dispatched {
		for _, idx := range indices {
			out[idx] = true
		}
	}
	return out
}

// jobs returns the jobs dispatched since the last call and forgets them.
func (rt *recordingTransport) jobs() [][]int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := rt.dispatched
	rt.dispatched = nil
	return out
}

// specKeys computes every point's store key, as the coordinator does.
func specKeys(t *testing.T, spec SpaceSpec) []simulate.Key {
	t.Helper()
	space, err := spec.Space()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := space.Points()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]simulate.Key, len(pts))
	for i, pt := range pts {
		m, err := space.Machine(pt)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = m.CacheKey(pt.Program)
	}
	return keys
}

// hidingStore reports a miss for one key and serves every other key
// from the store it wraps.
type hidingStore struct {
	simulate.Store
	hide simulate.Key
}

// Get misses on the hidden key.
func (s hidingStore) Get(k simulate.Key) (simulate.Result, bool) {
	if k == s.hide {
		return simulate.Result{}, false
	}
	return s.Store.Get(k)
}

// TestWarmSweepDispatchesNothing: once the shared store holds every
// point, a re-sweep merges every shard from it and sends the fleet no
// job; a store missing one point dispatches exactly that point's shard.
// The output is byte-identical to the single-process sweep each time.
func TestWarmSweepDispatchesNothing(t *testing.T) {
	spec := testSpec(t)
	want := canonicalPoints(t, singleProcess(t, spec))
	store := simulate.NewCache(0)
	lb := NewLoopback()
	lb.Add("w0", NewWorker(WithWorkerStore(store)))
	lb.Add("w1", NewWorker(WithWorkerStore(store)))
	rt := &recordingTransport{Transport: lb}
	sweep := func(st simulate.Store) *Report {
		t.Helper()
		coord, err := NewCoordinator(rt, []string{"w0", "w1"},
			WithSharedStore(st, ""),
			WithShards(4),
			WithRetryBackoff(time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		points, rep, err := coord.Sweep(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonicalPoints(t, points); string(got) != string(want) {
			t.Fatalf("point set differs from single-process sweep:\n got %s\nwant %s", got, want)
		}
		return rep
	}

	if rep := sweep(store); len(rt.jobs()) == 0 || rep.ResumedShards != 0 {
		t.Fatalf("cold sweep dispatched nothing or served shards from an empty store: %s", rep)
	}

	rep := sweep(store)
	if jobs := rt.jobs(); len(jobs) != 0 {
		t.Fatalf("warm sweep dispatched %v", jobs)
	}
	if rep.ResumedShards != rep.Shards || rep.CacheHits != rep.Points {
		t.Fatalf("warm sweep: %d of %d shards served from the store, %d of %d points store hits",
			rep.ResumedShards, rep.Shards, rep.CacheHits, rep.Points)
	}

	// Point 5 missing from the store: only its shard, {4, 5}, goes out.
	keys := specKeys(t, spec)
	rep = sweep(hidingStore{Store: store, hide: keys[5]})
	jobs := rt.jobs()
	if len(jobs) != 1 || len(jobs[0]) != 2 || jobs[0][0] != 4 || jobs[0][1] != 5 {
		t.Fatalf("store missing point 5 dispatched %v, want [[4 5]]", jobs)
	}
	if rep.ResumedShards != rep.Shards-1 {
		t.Fatalf("store missing point 5 served %d of %d shards", rep.ResumedShards, rep.Shards)
	}
}

// TestCrashResumeFromStore is the crash-resume proof: run one sweep
// until the fleet dies mid-way, then re-run the identical sweep
// against the same shared store, and assert that the shards the store
// holds completely are never dispatched again — their points are
// merged from the store — while the merged output stays byte-identical
// to the single-process sweep.
func TestCrashResumeFromStore(t *testing.T) {
	spec := testSpec(t)
	want := canonicalPoints(t, singleProcess(t, spec))
	store := simulate.NewCache(0)

	// Run 1: a single serial worker that dies after delivering 3 points.
	// With 4 shards of 2 points, shard 0 completes before the death
	// truncates shard 1; the sweep then fails with the whole fleet dead.
	lb1 := NewLoopback()
	lb1.Add("w0", NewWorker(WithWorkerStore(store), WithWorkerParallelism(1)))
	lb1.KillAfterPoints("w0", 3)
	coord1, err := NewCoordinator(lb1, []string{"w0"},
		WithSharedStore(store, ""),
		WithShards(4),
		WithMaxAttempts(2),
		WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord1.Sweep(context.Background(), spec); err == nil {
		t.Fatal("run 1 should have failed with its only worker dead")
	}

	// Which shards did run 1 leave completely stored?  Shard 0 at least.
	keys := specKeys(t, spec)
	shards := PlanShards(len(keys), 4)
	var held []Shard
	for _, sh := range shards {
		if _, ok := storedShard(store, keys, sh.Indices); ok {
			held = append(held, sh)
		}
	}
	if len(held) == 0 {
		t.Fatal("run 1 left no shard completely stored")
	}

	// Run 2: a healthy fleet, same store.  The held shards must be
	// merged from the store, never dispatched.
	lb2 := NewLoopback()
	lb2.Add("w0", NewWorker(WithWorkerStore(store)))
	lb2.Add("w1", NewWorker(WithWorkerStore(store)))
	rt := &recordingTransport{Transport: lb2}
	coord2, err := NewCoordinator(rt, []string{"w0", "w1"},
		WithSharedStore(store, ""),
		WithShards(4),
		WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	points, rep, err := coord2.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalPoints(t, points); string(got) != string(want) {
		t.Fatalf("resumed point set differs from single-process sweep:\n got %s\nwant %s", got, want)
	}
	if rep.ResumedShards != len(held) {
		t.Fatalf("served %d shards from the store, it held %d completely", rep.ResumedShards, len(held))
	}

	// Zero re-dispatch of stored work: no dispatched job may contain any
	// index belonging to a shard the store held.
	dispatched := rt.dispatchedIndices()
	heldPoints := 0
	for _, sh := range held {
		for _, idx := range sh.Indices {
			if dispatched[idx] {
				t.Fatalf("point %d of stored shard %d was re-dispatched", idx, sh.ID)
			}
			if !points[idx].Cached {
				t.Fatalf("point %d of stored shard %d was not served from the store", idx, sh.ID)
			}
			heldPoints++
		}
	}
	if rep.CacheHits < heldPoints {
		t.Fatalf("%d store hits, but the served shards hold %d points: %s", rep.CacheHits, heldPoints, rep)
	}
	t.Logf("run 2 report: %s", rep)
}

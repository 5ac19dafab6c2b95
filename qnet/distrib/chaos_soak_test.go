package distrib

import (
	"context"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/qnet/simulate"
)

// soakFleet starts a three-worker fleet whose workers share store, and
// returns the transport that reaches them, their names, the store URL
// jobs must carry ("" when the workers hold the store in process), and
// a function that stops the fleet.
type soakFleet func(store simulate.Store) (tr Transport, workers []string, storeURL string, stop func())

// loopbackSoakFleet runs the workers in process behind Loopback.
func loopbackSoakFleet(store simulate.Store) (Transport, []string, string, func()) {
	lb := NewLoopback()
	workers := []string{"w0", "w1", "w2"}
	for _, w := range workers {
		lb.Add(w, NewWorker(WithWorkerStore(store)))
	}
	return lb, workers, "", func() {}
}

// httpSoakFleet serves every worker and the store on its own httptest
// socket: the coordinator reaches Server workers through HTTPTransport,
// and the workers reach the store through StoreServer and RemoteStore.
func httpSoakFleet(store simulate.Store) (Transport, []string, string, func()) {
	storeSrv := httptest.NewServer(NewStoreServer(store).Handler())
	stops := []func(){storeSrv.Close}
	var urls []string
	for i := 0; i < 3; i++ {
		srv := NewServer(NewWorker())
		ts := httptest.NewServer(srv.Handler())
		stops = append(stops, srv.Close, ts.Close)
		urls = append(urls, ts.URL)
	}
	return NewHTTPTransport(), urls, storeSrv.URL, func() {
		for _, stop := range stops {
			stop()
		}
	}
}

// TestChaosSoak is the headline robustness proof: many seeded chaos
// schedules — injected latency, refused dispatches, mid-stream
// truncation, duplicated result lines, Status-probe flaps, store
// misses and dropped writes — replayed over an in-process loopback
// fleet and again over real sockets, and for every schedule the merged
// output must stay byte-identical to the single-process sweep.  Each
// schedule runs under a wall-clock bound (a hung retry loop fails the
// test rather than the suite), and neither soak may leak goroutines.
func TestChaosSoak(t *testing.T) {
	spec := testSpec(t)
	want := canonicalPoints(t, singleProcess(t, spec))

	schedules := 20
	if testing.Short() {
		schedules = 5
	}
	for _, tc := range []struct {
		name  string
		fleet soakFleet
	}{
		{"loopback", loopbackSoakFleet},
		{"http", httpSoakFleet},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var total chaosStats
			for seed := int64(1); seed <= int64(schedules); seed++ {
				st := soakSchedule(t, spec, want, seed, tc.fleet)
				total.Decisions += st.Decisions
				total.Delays += st.Delays
				total.Refusals += st.Refusals
				total.Truncations += st.Truncations
				total.Duplicates += st.Duplicates
				total.Flaps += st.Flaps
				total.StoreMisses += st.StoreMisses
				total.StoreDrops += st.StoreDrops
			}
			// The soak proves nothing if the schedules never actually
			// injected: at the Default rates over this many dispatches,
			// zero injections means the wiring is broken.
			if total.Injected() == 0 {
				t.Fatalf("no faults injected across %d schedules: %s", schedules, total)
			}
			t.Logf("soak total: %s", total)

			// No goroutine leaks: retry timers, heartbeats, worker loops
			// and connections must all have unwound.
			waitGoroutines(t, before)
		})
	}
}

// soakSchedule replays one seeded chaos schedule against a fresh
// fleet, with the chaos store behind both the workers and the
// coordinator, and fails the test unless the merged output equals want.
func soakSchedule(t *testing.T, spec SpaceSpec, want []byte, seed int64, fleet soakFleet) chaosStats {
	t.Helper()
	sched := newChaosSchedule(defaultChaos(seed))
	cstore := &chaosStore{inner: simulate.NewCache(0), sched: sched}
	tr, workers, storeURL, stop := fleet(cstore)
	defer stop()
	coord, err := NewCoordinator(&chaosTransport{inner: tr, sched: sched}, workers,
		WithSharedStore(cstore, storeURL),
		WithShards(6),
		WithMaxAttempts(30),
		WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	// The wall-clock bound: a coordinator that spins or hangs under
	// chaos fails this schedule instead of stalling the suite.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	points, rep, err := coord.Sweep(ctx, spec)
	cancel()
	if err != nil {
		t.Fatalf("seed %d: sweep failed under chaos: %v (report: %s, chaos: %s)",
			seed, err, rep, sched.Stats())
	}
	if got := canonicalPoints(t, points); string(got) != string(want) {
		t.Fatalf("seed %d: chaos changed the merged output\n got %s\nwant %s", seed, got, want)
	}
	st := sched.Stats()
	t.Logf("seed %d: report %s; chaos %s", seed, rep, st)
	return st
}

// waitGoroutines fails the test unless the goroutine count falls back
// to before.  Exiting goroutines are collected asynchronously, so it
// polls for up to ten seconds.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Command sweepd is the distributed sweep worker daemon: it serves
// the qnet/distrib job API and executes dispatched shards through
// simulate.Stream, the engine behind a local sweep, so points of a
// shard that share a cache key simulate once.
//
// A worker keeps a local result store (in-memory by default, disk-
// backed with -cache-dir) consulted for jobs that do not name a shared
// fleet store; jobs dispatched by a coordinator running with a store
// endpoint carry a StoreURL and use the fleet's shared store instead,
// so every worker's results warm every other worker.
//
// Endpoints:
//
//	POST /v1/jobs         run a shard (JSON distrib.Job), answered with its newline-delimited JSON results
//	GET  /v1/status       live worker telemetry, liveness and drain state (JSON distrib.Status)
//	GET/PUT /v1/store/... the local store, when -serve-store is set
//
// A shard runs for as long as the coordinator that posted it keeps its
// request open: a coordinator that hangs up stops the shard.
//
// Usage:
//
//	sweepd -listen :9000
//	sweepd -listen :9000 -cache-dir /var/qnet/store -serve-store
//	sweepd -listen :9000 -parallel 4
//	sweepd -listen :9000 -telemetry 100us   # per-run tracers feed /v1/status
//	sweepd -listen :9000 -drain-timeout 30s # graceful-drain deadline on SIGTERM
//
// With -serve-store the worker also exposes its own store over the
// store API, so a small fleet can elect any worker as the shared
// store instead of running one beside the coordinator.
//
// On SIGTERM (or SIGINT) the daemon drains instead of dying: it
// refuses new jobs with 503 "draining" and reports Draining in
// /v1/status, so coordinators stop dispatching to it without declaring
// it dead, finishes the shards already in flight (up to
// -drain-timeout), then exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/qnet/distrib"
	"repro/qnet/simulate"
)

func main() {
	var (
		listen     = flag.String("listen", ":9000", "address to serve the job API on")
		cacheDir   = flag.String("cache-dir", "", "directory for the worker's on-disk result store (empty: in-memory)")
		parallel   = flag.Int("parallel", 0, "points simulated concurrently per job (0 = GOMAXPROCS)")
		serveStore = flag.Bool("serve-store", false, "also expose the worker's local store over the /v1/store API")
		telemetry  = flag.Duration("telemetry", 0, "attach a per-run telemetry tracer that starts sampling at this simulated-time interval, doubled whenever its samples fill, feeding /v1/status with live event-rate and occupancy (0 = progress counters only)")
		drainLimit = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight shards before exiting anyway")
	)
	flag.Parse()

	var store simulate.Store
	if *cacheDir != "" {
		disk, err := simulate.NewDiskCache(*cacheDir, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweepd:", err)
			os.Exit(1)
		}
		store = disk
	} else {
		store = simulate.NewCache(0)
	}

	wopts := []distrib.WorkerOption{
		distrib.WithWorkerStore(store),
		distrib.WithWorkerParallelism(*parallel),
	}
	if *telemetry > 0 {
		wopts = append(wopts, distrib.WithWorkerTelemetry(*telemetry))
	}
	worker := distrib.NewWorker(wopts...)
	server := distrib.NewServer(worker)
	defer server.Close()

	mux := http.NewServeMux()
	mux.Handle("/", server.Handler())
	if *serveStore {
		mux.Handle("/v1/store/", distrib.NewStoreServer(store).Handler())
	}

	httpServer := &http.Server{Addr: *listen, Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.ListenAndServe() }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)

	log.Printf("sweepd: serving job API on %s (store: %s, serve-store: %v)",
		*listen, storeDesc(*cacheDir), *serveStore)
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "sweepd:", err)
			os.Exit(1)
		}
	case sig := <-sigs:
		log.Printf("sweepd: %v: draining (refusing new jobs, finishing in-flight shards, limit %s)",
			sig, *drainLimit)
		ctx, cancel := context.WithTimeout(context.Background(), *drainLimit)
		if err := server.Drain(ctx); err != nil {
			log.Printf("sweepd: drain deadline passed with shards still in flight: %v", err)
		} else {
			log.Printf("sweepd: drained, exiting")
		}
		httpServer.Shutdown(ctx)
		cancel()
	}
}

// storeDesc names the local store kind for the startup log line.
func storeDesc(cacheDir string) string {
	if cacheDir == "" {
		return "in-memory"
	}
	return "disk:" + cacheDir
}

// Command sweep explores the sensitivity of the communication models to
// device parameters: it scales all error rates around the Table 2
// baseline, sweeps the teleporter hop length around the 600-cell latency
// crossover, and sweeps the queue-purifier depth — the ablations of the
// design decisions called out in DESIGN.md.
//
// The depth sweep runs every configuration concurrently through the
// qnet/simulate sweep engine, optionally as a multi-seed ensemble with
// failure injection, and caches results on disk with -cache-dir so a
// repeated ablation only simulates what changed.
//
// The routing sweep (-routes) compares routing policies head to head:
// every named policy runs the same workload under both layouts, and
// each policy's execution-time ensemble is Welch-tested against the
// first policy in the list, so a significant difference is flagged
// rather than eyeballed.
//
// Usage:
//
//	sweep -mode errors              # error-rate scaling ablation
//	sweep -mode hops                # hop-length ablation
//	sweep -mode depth -grid 6       # purifier-depth ablation (simulator)
//	sweep -mode depth -workers 8    # explicit worker count
//	sweep -mode depth -seeds 5 -failure 0.05 -cache-dir .qnet
//	sweep -routes xy,yx,zigzag,least-congested      # routing-policy comparison
//	sweep -routes all -seeds 5 -failure 0.05        # with a real ensemble spread
//
// The depth sweep can also run distributed: give -workers a
// comma-separated list of sweepd base URLs and this command becomes
// the coordinator — it shards the space, dispatches the shards,
// reassigns on worker death, and merges the streamed results into the
// same table.  With -cache-dir and -store-listen it also serves the
// fleet's shared result store, so every worker re-hits every other
// worker's finished points:
//
//	sweep -mode depth -workers http://h1:9000,http://h2:9000 \
//	      -cache-dir .qnet -store-listen 10.0.0.5:9100
//
// The coordinator merges every shard whose points the shared store
// already holds without dispatching it, so rerunning a finished sweep
// sends the workers nothing, and rerunning one a coordinator crash cut
// short dispatches only the shards with a point missing.  Keep the
// store across runs with -cache-dir.
//
// Exit codes: 0 success, 1 runtime failure, 2 configuration error,
// 3 a shard exhausted its dispatch attempts, 4 interrupted (SIGINT/
// SIGTERM or context deadline).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/figures"
	"repro/internal/report"

	"repro/qnet"
	"repro/qnet/channel"
	"repro/qnet/distrib"
	"repro/qnet/fault"
	"repro/qnet/route"
	"repro/qnet/simulate"
	"repro/qnet/stats"
)

func main() {
	var (
		mode        = flag.String("mode", "errors", "sweep mode: errors, hops, depth, routes or methodology")
		dist        = flag.Int("dist", 20, "path length in hops for the analytic sweeps")
		gridN       = flag.Int("grid", 6, "mesh edge length for the simulator sweeps")
		workers     = flag.String("workers", "0", `worker goroutines for the simulator sweeps (0 = GOMAXPROCS), or a comma-separated list of sweepd URLs ("http://h1:9000,http://h2:9000") to run the depth sweep distributed`)
		seeds       = flag.Int("seeds", 1, "ensemble size (seeds per simulated point)")
		failure     = flag.Float64("failure", 0, "purification failure-injection rate for the simulator sweeps")
		cacheDir    = flag.String("cache-dir", "", "directory for the on-disk result cache (empty: no cache)")
		storeListen = flag.String("store-listen", "", "host:port to serve the fleet's shared result store on in distributed mode (must be reachable by the workers; empty: workers use their local stores)")
		routes      = flag.String("routes", "", `routing policies to compare, comma-separated ("all" or e.g. "xy,yx,zigzag,least-congested"); implies -mode routes`)
		faultDead   = flag.Float64("fault-dead", 0, "fraction of mesh links to kill per depth-sweep point (drawn from each point's seed; switches routing to fault-adaptive)")
		faultDrop   = flag.Float64("fault-drop", 0, "per-link batch drop probability injected on live links for the depth sweep")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the sweep context so in-flight shards abort
	// cleanly; the distinct exit code tells schedulers apart from crash.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	goroutines, workerURLs, err := parseWorkers(*workers)
	if err != nil {
		err = &configError{err}
	} else {
		switch {
		case len(workerURLs) > 0 && *mode != "depth" && *routes == "":
			err = &configError{fmt.Errorf("distributed -workers is only supported with -mode depth")}
		case *routes != "" || *mode == "routes":
			if len(workerURLs) > 0 {
				err = &configError{fmt.Errorf("distributed -workers is only supported with -mode depth")}
			} else {
				err = sweepRoutes(*routes, *gridN, goroutines, *seeds, *failure, *cacheDir)
			}
		case *mode == "errors":
			err = sweepErrors(*dist)
		case *mode == "hops":
			err = sweepHops(*dist)
		case *mode == "depth" && len(workerURLs) > 0:
			err = sweepDepthDistributed(ctx, *gridN, workerURLs, *seeds, *failure, *cacheDir, *storeListen,
				fault.Spec{DeadLinks: *faultDead, Drop: *faultDrop})
		case *mode == "depth":
			err = sweepDepth(ctx, *gridN, goroutines, *seeds, *failure, *cacheDir,
				fault.Spec{DeadLinks: *faultDead, Drop: *faultDrop})
		case *mode == "methodology":
			err = sweepMethodology()
		default:
			err = &configError{fmt.Errorf("unknown mode %q (want errors, hops, depth, routes or methodology)", *mode)}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(exitCode(err))
	}
}

// configError marks a failure in flags or setup rather than in the
// sweep itself; it exits with a distinct code so schedulers never
// retry a sweep that can only fail the same way again.
type configError struct{ err error }

// Error formats the wrapped error.
func (e *configError) Error() string { return e.err.Error() }

// Unwrap exposes the wrapped error.
func (e *configError) Unwrap() error { return e.err }

// exitCode maps a sweep failure to the process exit code documented in
// the package comment: 2 for configuration errors, 3 when a shard
// exhausted its dispatch attempts, 4 for interruption, 1 otherwise.
func exitCode(err error) int {
	var cfg *configError
	switch {
	case errors.As(err, &cfg):
		return 2
	case errors.Is(err, distrib.ErrAttemptsExhausted):
		return 3
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 4
	}
	return 1
}

// parseWorkers interprets the -workers flag: a bare integer is a
// goroutine count for the in-process engine; anything else is a
// comma-separated list of sweepd worker URLs for distributed mode.
func parseWorkers(s string) (goroutines int, urls []string, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil, nil
	}
	if n, err := strconv.Atoi(s); err == nil {
		return n, nil, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.Contains(part, "://") {
			return 0, nil, fmt.Errorf("-workers %q: %q is neither a goroutine count nor a URL", s, part)
		}
		urls = append(urls, part)
	}
	if len(urls) == 0 {
		return 0, nil, fmt.Errorf("-workers %q: no worker URLs", s)
	}
	return 0, urls, nil
}

// sweepErrors scales all Table 2 error rates by powers of ten and
// reports the channel-setup cost.
func sweepErrors(dist int) error {
	t := report.NewTable(
		fmt.Sprintf("Error-rate scaling ablation (endpoints-only, %d hops)", dist),
		"Scale", "pmv", "ArrivalError", "EndpointRounds", "TeleportedPairs", "Feasible")
	for _, scale := range []float64{0.01, 0.1, 1, 10, 100, 1000} {
		p := qnet.IonTrap2006().Scale(scale)
		cfg := channel.DefaultDistribution(p)
		c := cfg.Evaluate(channel.EndpointsOnly, dist)
		t.AddRow(scale, p.Errors.MoveCell, c.ArrivalError, c.EndpointRounds, c.TeleportedPairs, c.Feasible)
	}
	return t.WriteText(os.Stdout)
}

// sweepHops varies the teleporter spacing around the latency crossover
// and reports both latency and fidelity consequences.
func sweepHops(dist int) error {
	p := qnet.IonTrap2006()
	t := report.NewTable(
		fmt.Sprintf("Hop-length ablation (%d hops of each length)", dist),
		"HopCells", "BallisticPerHop", "TeleportPerHop", "LinkPairError", "TeleportedPairs")
	for _, cells := range []int{100, 200, 400, 600, 800, 1200, 2400} {
		cfg := channel.DefaultDistribution(p)
		cfg.HopCells = cells
		c := cfg.Evaluate(channel.EndpointsOnly, dist)
		t.AddRow(cells,
			p.BallisticTime(cells).String(),
			p.TeleportTime(cells).String(),
			cfg.RawLinkPair().Error(),
			c.TeleportedPairs)
	}
	return t.WriteText(os.Stdout)
}

// depthSweepSpec is the cmd/sweep default grid: the queue-purifier
// depth ablation the benchmark in qnet/simulate measures, as the wire
// spec the distributed sweep ships; the local sweep runs its
// spec.Space(), so both front-ends sweep one space.  A non-empty fault
// spec becomes the space's fault dimension; dead links also switch
// routing to the fault-adaptive policy, since the static default would
// fail every blocked path.  The second return reports that switch, so
// the front-ends can label it instead of silently changing the
// measured configuration; the swap is also visible in the cache keys,
// which hash the routing policy.
func depthSweepSpec(gridN, seeds int, failure float64, fs fault.Spec) (distrib.SpaceSpec, bool, error) {
	grid, err := qnet.NewGrid(gridN, gridN)
	if err != nil {
		return distrib.SpaceSpec{}, false, err
	}
	spec := distrib.SpaceSpec{
		Grids:       []qnet.Grid{grid},
		Layouts:     distrib.LayoutNames([]simulate.Layout{simulate.HomeBase}),
		Resources:   []simulate.Resources{{Teleporters: 16, Generators: 16, Purifiers: 8}},
		Programs:    []qnet.Program{qnet.QFT(grid.Tiles())},
		Depths:      []int{1, 2, 3, 4, 5},
		Seeds:       simulate.SeedRange(seeds),
		FailureRate: failure,
	}
	auto := false
	if !fs.Empty() {
		spec.Faults = []fault.Spec{fs}
		if fs.DeadLinks > 0 {
			spec.Routings = []string{route.FaultAdaptive().Name()}
			auto = true
		}
	}
	return spec, auto, nil
}

// autoRoutingNote is the stderr notice both depth-sweep front-ends
// print when dead links switched the routing policy.
const autoRoutingNote = "sweep: -fault-dead switches routing to fault-adaptive (the static default would fail every blocked path)"

// sweepDepth varies the queue-purifier depth in the full simulator,
// running all depths (times all seeds) concurrently and folding the
// seed dimension into mean ± 95% CI columns.
func sweepDepth(ctx context.Context, gridN, workers, seeds int, failure float64, cacheDir string, fs fault.Spec) error {
	spec, autoRouting, err := depthSweepSpec(gridN, seeds, failure, fs)
	if err != nil {
		return err
	}
	space, err := spec.Space()
	if err != nil {
		return err
	}
	if autoRouting {
		fmt.Fprintln(os.Stderr, autoRoutingNote)
	}
	opts := []simulate.SweepOption{simulate.WithWorkers(workers)}
	if cacheDir != "" {
		cache, err := simulate.NewDiskCache(cacheDir, 0)
		if err != nil {
			return err
		}
		opts = append(opts, simulate.WithCache(cache))
	}
	points, err := simulate.Sweep(ctx, space, opts...)
	if err != nil {
		return err
	}
	if err := writeDepthTable(points, gridN, len(space.Seeds), autoRouting); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "sweep:", simulate.Summarize(points))
	return nil
}

// writeDepthTable renders the depth-ablation table shared by the local
// and distributed depth sweeps, failing on the first errored point.
// Each row names its routing policy; autoRouting marks policies the
// sweep switched to itself (dead links force fault-adaptive) so a
// faulted table is never mistaken for a default-routed one.
func writeDepthTable(points []simulate.SweepPoint, gridN, seeds int, autoRouting bool) error {
	for _, pt := range points {
		if pt.Err != nil {
			return pt.Err
		}
	}
	t := report.NewTable(
		fmt.Sprintf("Queue-purifier depth ablation (QFT-%d, HomeBase, t=g=16 p=8, %d seeds)",
			gridN*gridN, seeds),
		"Depth", "Routing", "PairsPerOutput", "PairsDelivered", "MeanExec", "ExecCI95")
	for _, g := range stats.Group(points) {
		e := g.Ensemble
		routing := g.Point.RoutingName()
		if autoRouting {
			routing += " (auto)"
		}
		t.AddRow(g.Point.Depth, routing, 1<<uint(g.Point.Depth),
			uint64(e.PairsDelivered.Mean),
			e.MeanExec().String(),
			fmt.Sprintf("± %s", time.Duration(e.Exec.CI(0.95).Half()*float64(time.Second))))
	}
	return t.WriteText(os.Stdout)
}

// sweepDepthDistributed runs the same depth ablation as sweepDepth but
// as the coordinator of a sweepd fleet: the space ships to the workers
// as a wire spec, shards stream back over HTTP, and the merged points
// feed the identical table.  With -store-listen set, the coordinator
// also serves its cache (disk-backed under -cache-dir) as the fleet's
// shared result store.  Shards that cache already holds are merged
// from it without dispatch, so an identical rerun resumes instead of
// restarting.
func sweepDepthDistributed(ctx context.Context, gridN int, workerURLs []string, seeds int, failure float64, cacheDir, storeListen string, fs fault.Spec) error {
	spec, autoRouting, err := depthSweepSpec(gridN, seeds, failure, fs)
	if err != nil {
		return err
	}
	if autoRouting {
		fmt.Fprintln(os.Stderr, autoRoutingNote)
	}

	var store simulate.Store
	if cacheDir != "" {
		if store, err = simulate.NewDiskCache(cacheDir, 0); err != nil {
			return err
		}
	} else {
		store = simulate.NewCache(0)
	}
	var storeURL string
	if storeListen != "" {
		ln, err := net.Listen("tcp", storeListen)
		if err != nil {
			return fmt.Errorf("store listener: %w", err)
		}
		defer ln.Close()
		srv := &http.Server{Handler: distrib.NewStoreServer(store).Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		storeURL = "http://" + ln.Addr().String()
		fmt.Fprintln(os.Stderr, "sweep: serving shared store on", storeURL)
	}

	coord, err := distrib.NewCoordinator(distrib.NewHTTPTransport(), workerURLs,
		distrib.WithSharedStore(store, storeURL),
		distrib.WithHeartbeat(2*time.Second),
		distrib.WithLogf(func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}))
	if err != nil {
		return err
	}
	points, rep, err := coord.Sweep(ctx, spec)
	if err != nil {
		// The partial report tells the operator what the fleet did get
		// done (and which workers died or drained) before the failure.
		fmt.Fprintln(os.Stderr, "sweep: partial report:", rep)
		return err
	}
	if err := writeDepthTable(points, gridN, len(spec.Seeds), autoRouting); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "sweep:", rep)
	fmt.Fprintln(os.Stderr, "sweep:", simulate.SummarizeStore(points, store))
	return nil
}

// sweepRoutes compares routing policies on one workload: every policy
// in the list runs QFT under both layouts as a seed ensemble, and each
// policy's execution times are Welch-tested against the first policy's
// (the baseline), with Cohen's d as the effect size ("*" marks
// p < 0.05).  The measurement and table are figures.Routing — the same
// comparison cmd/figures prints — so the two front-ends cannot drift.
func sweepRoutes(routes string, gridN, workers, seeds int, failure float64, cacheDir string) error {
	if routes == "all" {
		routes = ""
	}
	policies, err := route.ParseList(routes)
	if err != nil {
		return err
	}
	if len(policies) < 2 {
		return fmt.Errorf("routing comparison needs at least 2 policies, got %d", len(policies))
	}
	cfg := figures.DefaultRoutingConfig(gridN)
	cfg.Routings = policies
	cfg.Seeds = simulate.SeedRange(seeds)
	cfg.FailureRate = failure
	cfg.Workers = workers
	if cacheDir != "" {
		if cfg.Cache, err = simulate.NewDiskCache(cacheDir, 0); err != nil {
			return err
		}
	}
	data, err := figures.Routing(cfg)
	if err != nil {
		return err
	}
	if err := data.Table().WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "sweep:", data.Sweep)
	return nil
}

// sweepMethodology compares the two EPR distribution methodologies of
// Figures 4 and 5 over a range of physical distances (the paper's §4.6
// fidelity/latency comparison plus the control-complexity metric).
func sweepMethodology() error {
	p := qnet.IonTrap2006()
	t := report.NewTable(
		"Distribution methodology comparison (ballistic vs chained teleportation)",
		"Cells", "BallisticLatency", "TeleportLatency",
		"BallisticPairErr", "ChainedPairErr", "BallisticCtrlSignals")
	for _, cells := range []int{600, 1800, 6000, 18000, 36000} {
		c, err := channel.CompareMethodologies(p, cells, 600)
		if err != nil {
			return err
		}
		d := channel.BallisticDistribution{Params: p, DistanceCells: cells}
		res, err := d.Evaluate()
		if err != nil {
			return err
		}
		t.AddRow(cells, c.BallisticLatency.String(), c.TeleportLatency.String(),
			c.BallisticPairError, c.ChainedPairError, res.ControlSignals)
	}
	return t.WriteText(os.Stdout)
}

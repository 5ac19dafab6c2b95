// Command qnetbench is the repository benchmark: it runs the simulator
// on a fixed set of workloads, checks every op's simulated output, and
// prints end-to-end and per-layer metrics.  Run it through run.sh, which
// builds it from source:
//
//	bash benchmark/run.sh                       # every workload, both passes
//	bash benchmark/run.sh -workload fig16_sweep -seconds 10 -trace 0
//
// With -workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  -trace 0 reports the
// end-to-end metrics, -trace 1 the per-layer ones.  See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// units names every metric this program can print.  The end-to-end and
// per-layer lists below are the ones BENCHMARK.json declares; the rest
// belong to one kind of workload and are printed where they apply.
var units = map[string]string{
	"setup_s":        "s",
	"wall_ref":       "ref",
	"ops_per_ref":    "ops/ref",
	"points_per_ref": "points/ref",
	"peak_rss_mb":    "MB",
	"fail_ratio":     "fraction",
	"wall_s":         "s",
	"ops_per_s":      "ops/s",
	"points_per_s":   "points/s",
	"ref_s":          "s",

	"sim.events":             "count",
	"sim.events_per_s":       "1/s",
	"sim.schedule_step_ns":   "ns",
	"sim.resource_serve_ns":  "ns",
	"sim.semaphore_cycle_ns": "ns",

	"netsim.build_ms":            "ms",
	"netsim.exec_s":              "sim_s",
	"netsim.channels":            "count",
	"netsim.pair_hops":           "count",
	"netsim.turns":               "count",
	"netsim.classical_msgs":      "count",
	"netsim.latency_mean_us":     "sim_us",
	"netsim.latency_max_us":      "sim_us",
	"netsim.teleporter_util":     "fraction",
	"netsim.teleporter_util_max": "fraction",
	"netsim.generator_util":      "fraction",
	"netsim.purifier_util":       "fraction",
	"netsim.batch_yield":         "fraction",
	"fault.dropped_batches":      "count",
	"route.calls":                "count",
	"route.busy_s":               "s",
	"route.share":                "fraction",
	"route.xy_ns":                "ns",
	"route.fault_adaptive_ns":    "ns",
	"route.least_congested_ns":   "ns",
	"host.allocs_per_op":         "count",
	"host.alloc_mb_per_op":       "MB",
	"host.gc_cycles_per_op":      "count",
	"host.gc_cpu_frac":           "fraction",
	"simulate.sims_per_op":       "count",
	"simulate.hit_ratio":         "fraction",
	"simulate.worker_busy_frac":  "fraction",
	"simulate.store_get_us":      "us",
	"simulate.store_put_us":      "us",
	"simulate.cache_key_us":      "us",
	"simulate.mem_get_ns":        "ns",
	"simulate.mem_put_ns":        "ns",
	"simulate.disk_put_us":       "us",
	"distrib.remote_get_us":      "us",
	"distrib.remote_put_us":      "us",
	"distrib.server_get_us":      "us",
	"distrib.server_put_us":      "us",
	"distrib.sweep_self_s":       "s",
	"distrib.reassignments":      "count",
	"distrib.duplicates":         "count",
	"bench.trace_overhead":       "ratio",
}

// endToEndMetrics time ops in units of the reference loop (see
// reference.go); the report prints the same metrics in seconds beside
// them.
var endToEndMetrics = []string{"setup_s", "wall_ref", "ops_per_ref", "points_per_ref", "peak_rss_mb"}

// perLayerMetrics are the per-layer metrics every workload reports.
// Timings of a layer only some workloads cross (store and HTTP round
// trips, route busy time, coordinator self time) are printed but not
// listed, so no workload reports a timing it did not take.
var perLayerMetrics = []string{
	"sim.events", "sim.events_per_s",
	"sim.schedule_step_ns", "sim.resource_serve_ns", "sim.semaphore_cycle_ns",
	"netsim.build_ms", "netsim.exec_s", "netsim.channels", "netsim.pair_hops",
	"netsim.turns", "netsim.classical_msgs", "netsim.latency_mean_us", "netsim.latency_max_us",
	"netsim.teleporter_util", "netsim.generator_util", "netsim.purifier_util",
	"netsim.batch_yield", "fault.dropped_batches",
	"route.calls", "route.share", "route.xy_ns", "route.fault_adaptive_ns", "route.least_congested_ns",
	"host.allocs_per_op", "host.alloc_mb_per_op", "host.gc_cycles_per_op", "host.gc_cpu_frac",
	"simulate.sims_per_op", "simulate.hit_ratio", "simulate.worker_busy_frac",
	"simulate.cache_key_us", "simulate.mem_get_ns", "simulate.mem_put_ns", "simulate.disk_put_us",
	"distrib.reassignments", "distrib.duplicates",
	"bench.trace_overhead",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of a workload run's output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name       = flag.String("workload", "", "workload to run (empty: every workload, each pass in its own process)")
		seed       = flag.Int64("seed", pinSeed, "input seed; at the pinned seed outputs are checked against testdata/, elsewhere against the run's first op")
		seconds    = flag.Float64("seconds", 15, "seconds of timed ops per run")
		tracePass  = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		traceDir   = flag.String("trace-dir", "", "write the traced pass's spans to DIR/<workload>.json")
		updatePins = flag.Bool("update-pins", false, "recompute the pinned outputs in a single process and rewrite benchmark/testdata")
	)
	flag.Parse()
	if *tracePass != 0 && *tracePass != 1 {
		fatalf("-trace must be 0 or 1, got %d", *tracePass)
	}
	if *seconds < 0 || math.IsNaN(*seconds) {
		fatalf("-seconds must be >= 0")
	}
	// A guard against a hung op: the run fails instead of never ending.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second+3*time.Duration(*seconds*float64(time.Second)))
	defer cancel()

	switch {
	case *updatePins:
		if err := writePins(ctx, *seed, filepath.Join("benchmark", "testdata")); err != nil {
			fatalf("%v", err)
		}
	case *name == "":
		if err := runAll(*seed, *seconds, *traceDir); err != nil {
			fatalf("%v", err)
		}
	default:
		w, err := findWorkload(*name)
		if err != nil {
			fatalf("%v", err)
		}
		cfg := runConfig{
			seed:        *seed,
			seconds:     time.Duration(*seconds * float64(time.Second)),
			traced:      *tracePass == 1,
			setupReps:   3,
			minOps:      3,
			probeBudget: 150 * time.Millisecond,
			logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		}
		if cfg.traced {
			// setup_s is an end-to-end metric; the traced pass spends its
			// time on pairs of untraced and traced ops instead.
			cfg.setupReps, cfg.minOps = 1, 3
		}
		s, err := runOne(ctx, w, cfg, *traceDir, os.Stdout)
		if err != nil {
			fatalf("%v", err)
		}
		if !s.Correct {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qnetbench: "+format+"\n", args...)
	os.Exit(2)
}

// runOne measures one workload and prints its report, ending with the
// summary line.
func runOne(ctx context.Context, w workload, cfg runConfig, traceDir string, stdout io.Writer) (summary, error) {
	pass := "untraced"
	if cfg.traced {
		pass = "traced"
	}
	fmt.Fprintf(stdout, "# qnetbench workload=%s seed=%d seconds=%g pass=%s\n", w.name, cfg.seed, cfg.seconds.Seconds(), pass)
	fmt.Fprintf(stdout, "# env %s\n", currentEnvironment())
	m, err := measure(ctx, w, cfg)
	if err != nil {
		return summary{}, err
	}
	if traceDir != "" && m.rec != nil {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return summary{}, err
		}
		if err := m.rec.writeFile(filepath.Join(traceDir, w.name+".json"), w.name); err != nil {
			return summary{}, err
		}
	}
	listed := endToEndMetrics
	if cfg.traced {
		listed = perLayerMetrics
	}
	s := summary{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: make(map[string]metricValue)}
	for _, k := range listed {
		v, ok := m.values[k]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			// Only a run whose every op failed leaves a metric undefined.
			v, s.Correct = 0, false
		}
		s.Metrics[k] = metricValue{Value: v, Unit: units[k]}
	}
	printReport(stdout, m, listed, cfg.traced)
	line, err := json.Marshal(s)
	if err != nil {
		return summary{}, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return s, nil
}

// printReport writes one line per metric: the listed ones, then those
// this workload adds.
func printReport(w io.Writer, m *measurement, listed []string, traced bool) {
	row := func(k, note string) {
		fmt.Fprintf(w, "%-28s %16.6g %-10s %s\n", k, m.values[k], units[k], note)
	}
	spread := func(xs []float64) string {
		q1, _, q3 := quartiles(xs)
		return fmt.Sprintf("q1=%.6g q3=%.6g n=%d", q1, q3, len(xs))
	}
	notes := map[string]string{
		"setup_s":     fmt.Sprintf("median of %d fixture builds plus the warm-up op (%.6g s)", len(m.builds), m.warmup),
		"wall_ref":    spread(m.st.rel),
		"wall_s":      spread(m.st.walls),
		"ref_s":       spread(m.st.refs),
		"peak_rss_mb": "per-op peaks " + spread(m.st.rss),
	}
	for _, k := range listed {
		row(k, notes[k])
	}
	inList := make(map[string]bool)
	for _, k := range listed {
		inList[k] = true
	}
	extra := []string{"wall_s", "ops_per_s", "points_per_s", "ref_s", "fail_ratio"}
	if traced {
		extra = []string{"netsim.teleporter_util_max", "route.busy_s",
			"simulate.store_get_us", "simulate.store_put_us",
			"distrib.remote_get_us", "distrib.remote_put_us",
			"distrib.server_get_us", "distrib.server_put_us", "distrib.sweep_self_s"}
	}
	for _, k := range extra {
		if _, ok := m.values[k]; ok && !inList[k] {
			row(k, notes[k])
		}
	}
}

// runAll runs every workload's untraced and traced passes, each in a
// fresh child process so peak RSS and GC state stay per workload, and
// prints a summary table.
func runAll(seed int64, seconds float64, traceDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type row struct {
		name   string
		passes [2]summary
	}
	var rows []row
	failed := false
	for _, w := range workloads {
		r := row{name: w.name}
		for pass := 0; pass < 2; pass++ {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(pass)}
			if traceDir != "" {
				args = append(args, "-trace-dir", traceDir)
			}
			var out bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = io.MultiWriter(os.Stdout, &out)
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			var exit *exec.ExitError
			if runErr != nil && !errors.As(runErr, &exit) {
				return runErr
			}
			if err := json.Unmarshal(lastLine(out.Bytes()), &r.passes[pass]); err != nil {
				fmt.Fprintf(os.Stderr, "qnetbench: %s pass %d printed no result\n", w.name, pass)
				failed = true
				continue
			}
			failed = failed || !r.passes[pass].Correct
		}
		rows = append(rows, r)
	}
	fmt.Println()
	fmt.Printf("%-20s", "workload")
	cols := append(append([]string(nil), endToEndMetrics...), "bench.trace_overhead", "fail_ratio")
	for _, k := range cols {
		fmt.Printf(" %14s", k)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-20s", r.name)
		for _, k := range cols {
			var v float64
			switch k {
			case "bench.trace_overhead":
				v = r.passes[1].Metrics[k].Value
			case "fail_ratio":
				att := r.passes[0].Attempted + r.passes[1].Attempted
				v = ratio(float64(r.passes[0].Failed+r.passes[1].Failed), float64(att))
			default:
				v = r.passes[0].Metrics[k].Value
			}
			fmt.Printf(" %14.6g", v)
		}
		fmt.Println()
	}
	if failed {
		return errors.New("some workload failed or produced wrong output")
	}
	return nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// writePins recomputes every pin in a single process at the pinned
// seed.
func writePins(ctx context.Context, seed int64, dir string) error {
	if seed != pinSeed {
		return fmt.Errorf("pins are recorded at seed %d, not %d", pinSeed, seed)
	}
	done := make(map[string]bool)
	for _, w := range workloads {
		if done[w.pin] {
			continue
		}
		done[w.pin] = true
		results, err := w.reference(ctx, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", w.pin, err)
		}
		p := newPin(w.pin, seed, results)
		if err := writePin(dir, w.pin, p); err != nil {
			return err
		}
		fmt.Printf("pinned %s: %d points, sha256 %.16s\n", w.pin, p.Points, p.SHA256)
	}
	return nil
}

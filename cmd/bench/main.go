// Command bench runs the repository's performance benchmarks
// (internal/perfbench) outside `go test` and emits a machine-readable
// JSON report — by default BENCH_qft.json — so the simulator's perf
// trajectory (ns/op, allocs/op, simulated events/sec) is recorded per
// change and comparable across changes.
//
// The benchmark bodies are exactly the ones `go test -bench .
// ./internal/perfbench/` runs; this command drives them through
// testing.Benchmark, so both harnesses measure the same code.
//
// Usage:
//
//	bench                  # 1s per benchmark, writes BENCH_qft.json
//	bench -benchtime 3x    # exactly 3 iterations per benchmark
//	bench -count 5         # 5 samples per benchmark: every sample, the mean and its 95% CI
//	bench -compare old.json  # also print old → new means with a Welch test per row
//	bench -out report.json # alternate output path
//	bench -check           # 1 iteration each, validate the JSON, write nothing
//	bench -stamp 2026-08-07T00:00:00Z  # pin the generated timestamp (diff-stable reruns)
//
// With -count N the suite runs N rounds, each body once per round, so
// a drift in the host's speed spreads over every benchmark instead of
// landing on one.  -compare marks a row only when Welch's t-test
// (qnet/stats.Compare) finds the change in mean ns/op significant;
// one sample per side never is.
//
// The -check form is the CI smoke mode: it exercises every benchmark
// body and the whole JSON emission path in seconds, failing loudly if
// either rots (a report without the tracer trio, the 12x12 HomeBase
// row or the Figure 16 sweep row, or with no events/sec on one of them
// or no points/sec on the sweep, is invalid), without
// recording numbers from an unloaded shared runner as if they were a
// trustworthy baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/perfbench"
	"repro/qnet/stats"
)

// schema versions the report format: v2 records every sample of each
// benchmark, with the mean and its 95% confidence interval.
const schema = "qnet-bench-v2"

// report is the schema of BENCH_qft.json.
type report struct {
	// Schema versions the file format; consumers should check it.
	Schema string `json:"schema"`
	// Go, OS and Arch identify the toolchain and platform the numbers
	// were measured on (benchmark numbers are only comparable within a
	// platform).
	Go   string `json:"go"`
	OS   string `json:"os"`
	Arch string `json:"arch"`
	// CPUs is the logical CPU count of the measuring machine.  The
	// sweep benchmarks fan points out across workers, so their
	// throughput scales with it; compare reports taken on equal counts.
	CPUs int `json:"cpus"`
	// GOMAXPROCS is the number of CPUs the Go scheduler ran on, which
	// bounds the sweeps' parallelism when it is below CPUs.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Generated is the RFC 3339 wall-clock time of the run.
	Generated string `json:"generated"`
	// Benchtime is the per-benchmark measuring budget that produced
	// these numbers ("1s", "3x", ...).
	Benchtime string `json:"benchtime"`
	// Count is the number of samples taken of every benchmark.
	Count int `json:"count"`
	// Benchmarks holds one entry per benchmark, in a fixed order.
	Benchmarks []entry `json:"benchmarks"`
}

// entry is one benchmark's measurement: the means of its samples, a
// 95% confidence interval for the mean ns/op, and the samples.
type entry struct {
	// Name is the benchmark's go-test-style name, e.g.
	// "EngineSchedule" or "QFT/layout=HomeBase/route=xy".
	Name string `json:"name"`
	// NsPerOp is the mean wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// NsPerOpCI95 bounds the 95% normal-approximation confidence
	// interval of NsPerOp (both ends equal it for one sample).
	NsPerOpCI95 [2]float64 `json:"ns_per_op_ci95"`
	// AllocsPerOp is the mean heap allocation count per operation.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// BytesPerOp is the mean heap bytes allocated per operation.
	BytesPerOp float64 `json:"bytes_per_op"`
	// EventsPerSec is the mean simulated-event throughput for full-run
	// and sweep benchmarks (0 for micro-benchmarks that don't report
	// it).
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// PointsPerSec is the mean merged run-point throughput of the
	// distributed-sweep benchmark (0 for benchmarks that don't report
	// it).
	PointsPerSec float64 `json:"points_per_sec,omitempty"`
	// Samples holds every run of the body, in the order taken.
	Samples []sample `json:"samples"`
}

// sample is one testing.Benchmark run of a benchmark body.
type sample struct {
	// Iterations is the measured b.N.
	Iterations int `json:"iterations"`
	// NsPerOp is wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is the heap allocation count per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes allocated per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
	// EventsPerSec is the simulated-event throughput, if reported.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// PointsPerSec is the merged run-point throughput, if reported.
	PointsPerSec float64 `json:"points_per_sec,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH_qft.json", "output path for the JSON report")
	benchtime := flag.String("benchtime", "1s", "per-benchmark measuring budget (go test -benchtime syntax: a duration or Nx)")
	count := flag.Int("count", 1, "samples per benchmark, taken in that many rounds over the suite")
	base := flag.String("compare", "", "print each benchmark's mean ns/op against this earlier report, marking significant changes")
	check := flag.Bool("check", false, "smoke mode: one iteration per benchmark, validate the JSON, write nothing")
	stamp := flag.String("stamp", "", "override the generated timestamp (RFC 3339), so reruns produce diff-stable reports")
	// testing.Init registers the test.* flags testing.Benchmark reads
	// its benchtime from; it must run before flag.Parse.
	testing.Init()
	flag.Parse()

	if *check {
		*benchtime = "1x"
	}
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fmt.Fprintf(os.Stderr, "bench: bad -benchtime %q: %v\n", *benchtime, err)
		os.Exit(2)
	}
	if *count < 1 {
		fmt.Fprintf(os.Stderr, "bench: -count must be at least 1, got %d\n", *count)
		os.Exit(2)
	}
	var baseRep report
	if *base != "" {
		// Read the base first, so a bad path fails before the suite runs.
		var err error
		if baseRep, err = readReport(*base); err != nil {
			fmt.Fprintln(os.Stderr, "bench: -compare:", err)
			os.Exit(2)
		}
	}

	generated := time.Now().UTC().Format(time.RFC3339)
	if *stamp != "" {
		ts, err := time.Parse(time.RFC3339, *stamp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: bad -stamp %q: %v\n", *stamp, err)
			os.Exit(2)
		}
		generated = ts.UTC().Format(time.RFC3339)
	}
	rep := report{
		Schema:     schema,
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Generated:  generated,
		Benchtime:  *benchtime,
		Count:      *count,
	}
	list := benchmarks()
	samples := make([][]sample, len(list))
	for round := 1; round <= *count; round++ {
		for i, b := range list {
			fmt.Fprintf(os.Stderr, "bench: [%d/%d] %s...\n", round, *count, b.name)
			samples[i] = append(samples[i], measure(b.fn))
		}
	}
	for i, b := range list {
		rep.Benchmarks = append(rep.Benchmarks, summarize(b.name, samples[i]))
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if _, err := checkFresh(data); err != nil {
		fmt.Fprintln(os.Stderr, "bench: invalid report:", err)
		os.Exit(1)
	}
	if *check {
		fmt.Printf("bench: ok (%d benchmarks x %d samples, JSON emitter valid, nothing written)\n", len(rep.Benchmarks), rep.Count)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		for _, e := range rep.Benchmarks {
			fmt.Printf("%-48s %12.0f ± %-9.3g ns/op %10.0f allocs/op", e.Name, e.NsPerOp, halfWidth(e), e.AllocsPerOp)
			if e.EventsPerSec > 0 {
				fmt.Printf(" %12.0f events/sec", e.EventsPerSec)
			}
			if e.PointsPerSec > 0 {
				fmt.Printf(" %12.1f points/sec", e.PointsPerSec)
			}
			fmt.Println()
		}
		fmt.Printf("bench: wrote %s (%d benchmarks x %d samples)\n", *out, len(rep.Benchmarks), rep.Count)
	}
	if *base != "" {
		compare(os.Stdout, baseRep, rep)
	}
}

// namedBench pairs a benchmark body with its report name.
type namedBench struct {
	name string
	fn   func(*testing.B)
}

// benchmarks enumerates the report's benchmark suite in fixed order:
// the engine and waiter micro-benchmarks, the full-run layout x policy
// matrix, the 12x12 HomeBase run, the tracer-overhead trio, the two
// cache-key rows, the 8-worker sweep, the Figure 16 sweep and the
// 2-worker distributed sweep, cold and warm.
func benchmarks() []namedBench {
	list := []namedBench{
		{name: "EngineSchedule", fn: perfbench.EngineSchedule},
		{name: "EngineScheduleMix", fn: perfbench.EngineScheduleMix},
		{name: "EngineScheduleMixOn", fn: perfbench.EngineScheduleMixOn},
		{name: "EngineScheduleDistinct", fn: perfbench.EngineScheduleDistinct},
		{name: "ResourceServe", fn: perfbench.ResourceServe},
		{name: "SemaphoreCycle", fn: perfbench.SemaphoreCycle},
	}
	for _, cfg := range perfbench.FullRunConfigs() {
		list = append(list, namedBench{
			name: "QFT/" + cfg.Name,
			fn:   perfbench.QFTRun(cfg.Layout, cfg.Policy),
		})
	}
	list = append(list, namedBench{name: largeQFT, fn: perfbench.LargeHomeBaseQFT})
	for _, mode := range perfbench.TraceModes {
		list = append(list, namedBench{
			name: traceName(mode),
			fn:   perfbench.TraceQFT(mode),
		})
	}
	list = append(list,
		namedBench{name: "CacheKey/QFT-16", fn: perfbench.CacheKey(4)},
		namedBench{name: "CacheKey/QFT-256", fn: perfbench.CacheKey(16)},
		namedBench{name: "Sweep/workers=8", fn: perfbench.SweepWorkers(8)},
		namedBench{name: fig16Sweep, fn: perfbench.Fig16Sweep},
		namedBench{name: "DistribSweep/workers=2", fn: perfbench.DistributedSweep(2)},
		namedBench{name: "DistribSweep/warm", fn: perfbench.DistributedWarmSweep(2)},
	)
	return list
}

// largeQFT is the report name of the 12x12 HomeBase QFT-144 run, the
// layout that dominates a paper-scale Figure 16 sweep.
const largeQFT = "LargeQFT/grid=12x12/layout=HomeBase/t=21,g=21,p=5"

// fig16Sweep is the report name of the default Figure 16 sweep, the
// row whose allocations and points/sec show what the collector costs a
// sweep that keeps every CPU simulating.
const fig16Sweep = "Sweep/fig16"

// traceName is the report name of one TraceQFT mode.
func traceName(mode string) string {
	return "TraceQFT/trace=" + mode
}

// measure runs one benchmark body through testing.Benchmark and
// flattens the result into a sample.
func measure(fn func(*testing.B)) sample {
	r := testing.Benchmark(fn)
	s := sample{
		Iterations:  r.N,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if r.N > 0 {
		s.NsPerOp = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	s.EventsPerSec = r.Extra["events/sec"]
	s.PointsPerSec = r.Extra["points/sec"]
	return s
}

// summarize builds a benchmark's entry from its samples.
func summarize(name string, samples []sample) entry {
	ns := describe(samples, func(s sample) float64 { return s.NsPerOp })
	ci := ns.CI(0.95)
	return entry{
		Name:         name,
		NsPerOp:      ns.Mean,
		NsPerOpCI95:  [2]float64{ci.Lo, ci.Hi},
		AllocsPerOp:  describe(samples, func(s sample) float64 { return float64(s.AllocsPerOp) }).Mean,
		BytesPerOp:   describe(samples, func(s sample) float64 { return float64(s.BytesPerOp) }).Mean,
		EventsPerSec: describe(samples, func(s sample) float64 { return s.EventsPerSec }).Mean,
		PointsPerSec: describe(samples, func(s sample) float64 { return s.PointsPerSec }).Mean,
		Samples:      samples,
	}
}

// describe summarizes one field over a benchmark's samples.
func describe(samples []sample, field func(sample) float64) stats.Summary {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = field(s)
	}
	return stats.Describe(xs)
}

// halfWidth is the ± of an entry's ns/op confidence interval.
func halfWidth(e entry) float64 { return (e.NsPerOpCI95[1] - e.NsPerOpCI95[0]) / 2 }

// compare prints, for every benchmark of cur, its base and current mean
// ns/op with their confidence half-widths and Welch's t-test of the
// change; the test's "*" marks a significant change.
func compare(w io.Writer, base, cur report) {
	byName := make(map[string]entry, len(base.Benchmarks))
	for _, e := range base.Benchmarks {
		byName[e.Name] = e
	}
	fmt.Fprintf(w, "compare: base %s (%d samples, %d CPUs) -> new %s (%d samples, %d CPUs), ns/op\n",
		base.Generated, base.Count, base.CPUs, cur.Generated, cur.Count, cur.CPUs)
	for _, e := range cur.Benchmarks {
		b, ok := byName[e.Name]
		if !ok {
			fmt.Fprintf(w, "%-48s %27s %12.4g ± %-9.3g\n", e.Name, "(not in base)", e.NsPerOp, halfWidth(e))
			continue
		}
		c := stats.Compare(nsPerOp(b), nsPerOp(e))
		fmt.Fprintf(w, "%-48s %12.4g ± %-9.3g -> %12.4g ± %-9.3g %+7.1f%%  %s\n",
			e.Name, b.NsPerOp, halfWidth(b), e.NsPerOp, halfWidth(e), 100*c.DeltaMean/b.NsPerOp, c)
	}
}

// nsPerOp summarizes an entry's ns/op samples.
func nsPerOp(e entry) stats.Summary {
	return describe(e.Samples, func(s sample) float64 { return s.NsPerOp })
}

// readReport loads and validates a report written by this command.
func readReport(path string) (report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	rep, err := decode(data)
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// decode parses a marshaled report and rejects one a perf-trajectory
// consumer could not use, so a silent breakage of the emitter (or of a
// benchmark body) fails this command instead of producing a
// plausible-looking but useless BENCH file.
func decode(data []byte) (report, error) {
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return report{}, err
	}
	if rep.Schema != schema {
		return report{}, fmt.Errorf("schema %q, want %s", rep.Schema, schema)
	}
	switch {
	case rep.CPUs < 1 || rep.GOMAXPROCS < 1:
		return report{}, fmt.Errorf("cpus = %d, gomaxprocs = %d", rep.CPUs, rep.GOMAXPROCS)
	case rep.Count < 1:
		return report{}, fmt.Errorf("count = %d", rep.Count)
	case len(rep.Benchmarks) == 0:
		return report{}, fmt.Errorf("no benchmarks in report")
	}
	byName := make(map[string]entry, len(rep.Benchmarks))
	for _, e := range rep.Benchmarks {
		if err := checkEntry(e, rep.Count); err != nil {
			return report{}, err
		}
		if _, dup := byName[e.Name]; dup {
			return report{}, fmt.Errorf("duplicate benchmark %q", e.Name)
		}
		byName[e.Name] = e
	}
	// The tracer-overhead trio must be complete with positive
	// throughput, or the report cannot answer "what does telemetry
	// cost" — the question those entries exist for.
	for _, mode := range perfbench.TraceModes {
		if err := requireRate(rep, traceName(mode), eventRate); err != nil {
			return report{}, err
		}
	}
	return rep, nil
}

// checkFresh validates a report this run produced: on top of decode's
// checks, it must carry the 12x12 HomeBase row with positive
// events/sec, or the report cannot track the cost per event at the
// scale that dominates Figure 16, and the Figure 16 sweep row with
// positive points/sec, or it cannot track what a whole sweep costs.
// Reports recorded before those rows existed still decode, so they
// remain usable as -compare bases.
func checkFresh(data []byte) (report, error) {
	rep, err := decode(data)
	if err != nil {
		return report{}, err
	}
	if err := requireRate(rep, largeQFT, eventRate); err != nil {
		return report{}, err
	}
	if err := requireRate(rep, fig16Sweep, pointRate); err != nil {
		return report{}, err
	}
	return rep, nil
}

// A rate is one throughput column of an entry and its unit.
type rate struct {
	unit  string
	value func(entry) float64
}

var (
	eventRate = rate{"events/sec", func(e entry) float64 { return e.EventsPerSec }}
	pointRate = rate{"points/sec", func(e entry) float64 { return e.PointsPerSec }}
)

// requireRate reports an error unless the named benchmark is in the
// report with a positive rate r.
func requireRate(rep report, name string, r rate) error {
	for _, e := range rep.Benchmarks {
		if e.Name == name {
			if v := r.value(e); v <= 0 {
				return fmt.Errorf("%s: %s = %g", name, r.unit, v)
			}
			return nil
		}
	}
	return fmt.Errorf("missing benchmark %q", name)
}

// checkEntry validates one entry: count usable samples, and the means
// and confidence interval that summarize them.
func checkEntry(e entry, count int) error {
	if e.Name == "" {
		return fmt.Errorf("entry with empty name")
	}
	if len(e.Samples) != count {
		return fmt.Errorf("%s: %d samples, want %d", e.Name, len(e.Samples), count)
	}
	for i, s := range e.Samples {
		switch {
		case s.Iterations <= 0:
			return fmt.Errorf("%s: sample %d: %d iterations", e.Name, i, s.Iterations)
		case s.NsPerOp <= 0:
			return fmt.Errorf("%s: sample %d: ns/op = %g", e.Name, i, s.NsPerOp)
		case s.AllocsPerOp < 0 || s.BytesPerOp < 0:
			return fmt.Errorf("%s: sample %d: allocs/op = %d, bytes/op = %d", e.Name, i, s.AllocsPerOp, s.BytesPerOp)
		}
	}
	if !reflect.DeepEqual(summarize(e.Name, e.Samples), e) {
		return fmt.Errorf("%s: means or confidence interval do not match the samples", e.Name)
	}
	return nil
}

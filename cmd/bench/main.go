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
//	bench -out report.json # alternate output path
//	bench -check           # 1 iteration each, validate the JSON, write nothing
//	bench -stamp 2026-08-07T00:00:00Z  # pin the generated timestamp (diff-stable reruns)
//
// The -check form is the CI smoke mode: it exercises every benchmark
// body and the whole JSON emission path in seconds, failing loudly if
// either rots, without recording numbers from an unloaded shared
// runner as if they were a trustworthy baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/perfbench"
)

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
	// Generated is the RFC 3339 wall-clock time of the run.
	Generated string `json:"generated"`
	// Benchtime is the per-benchmark measuring budget that produced
	// these numbers ("1s", "3x", ...).
	Benchtime string `json:"benchtime"`
	// Benchmarks holds one entry per benchmark, in a fixed order.
	Benchmarks []entry `json:"benchmarks"`
}

// entry is one benchmark's measurement.
type entry struct {
	// Name is the benchmark's go-test-style name, e.g.
	// "EngineSchedule" or "QFT/layout=HomeBase/route=xy".
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int `json:"iterations"`
	// NsPerOp is wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are heap allocation counts and bytes
	// per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes allocated per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
	// EventsPerSec is the simulated-event throughput for full-run and
	// sweep benchmarks (0 for micro-benchmarks that don't report it).
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// PointsPerSec is the merged run-point throughput of the
	// distributed-sweep benchmark (0 for benchmarks that don't report
	// it).
	PointsPerSec float64 `json:"points_per_sec,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH_qft.json", "output path for the JSON report")
	benchtime := flag.String("benchtime", "1s", "per-benchmark measuring budget (go test -benchtime syntax: a duration or Nx)")
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
		Schema:    "qnet-bench-v1",
		Go:        runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Generated: generated,
		Benchtime: *benchtime,
	}
	for _, b := range benchmarks() {
		fmt.Fprintf(os.Stderr, "bench: %s...\n", b.name)
		rep.Benchmarks = append(rep.Benchmarks, measure(b.name, b.fn))
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := validate(data); err != nil {
		fmt.Fprintln(os.Stderr, "bench: invalid report:", err)
		os.Exit(1)
	}
	if *check {
		fmt.Printf("bench: ok (%d benchmarks, JSON emitter valid, nothing written)\n", len(rep.Benchmarks))
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, e := range rep.Benchmarks {
		fmt.Printf("%-48s %12.0f ns/op %10d allocs/op", e.Name, e.NsPerOp, e.AllocsPerOp)
		if e.EventsPerSec > 0 {
			fmt.Printf(" %12.0f events/sec", e.EventsPerSec)
		}
		if e.PointsPerSec > 0 {
			fmt.Printf(" %12.1f points/sec", e.PointsPerSec)
		}
		fmt.Println()
	}
	fmt.Printf("bench: wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
}

// namedBench pairs a benchmark body with its report name.
type namedBench struct {
	name string
	fn   func(*testing.B)
}

// benchmarks enumerates the report's benchmark suite in fixed order:
// the engine and waiter micro-benchmarks, the full-run layout x policy
// matrix, the tracer-overhead trio, the 8-worker sweep and the 2-worker
// distributed sweep.
func benchmarks() []namedBench {
	list := []namedBench{
		{name: "EngineSchedule", fn: perfbench.EngineSchedule},
		{name: "ResourceServe", fn: perfbench.ResourceServe},
		{name: "SemaphoreCycle", fn: perfbench.SemaphoreCycle},
	}
	for _, cfg := range perfbench.FullRunConfigs() {
		list = append(list, namedBench{
			name: "QFT/" + cfg.Name,
			fn:   perfbench.QFTRun(cfg.Layout, cfg.Policy),
		})
	}
	for _, mode := range perfbench.TraceModes {
		list = append(list, namedBench{
			name: traceName(mode),
			fn:   perfbench.TraceQFT(mode),
		})
	}
	list = append(list, namedBench{name: "Sweep/workers=8", fn: perfbench.SweepWorkers(8)})
	list = append(list, namedBench{name: "DistribSweep/workers=2", fn: perfbench.DistributedSweep(2)})
	return list
}

// traceName is the report name of one TraceQFT mode.
func traceName(mode string) string {
	return "TraceQFT/trace=" + mode
}

// measure runs one benchmark body through testing.Benchmark and
// flattens the result into a report entry.
func measure(name string, fn func(*testing.B)) entry {
	r := testing.Benchmark(fn)
	e := entry{
		Name:        name,
		Iterations:  r.N,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if r.N > 0 {
		e.NsPerOp = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	e.EventsPerSec = r.Extra["events/sec"]
	e.PointsPerSec = r.Extra["points/sec"]
	return e
}

// validate round-trips the marshaled report and rejects entries a
// perf-trajectory consumer could not use, so a silent breakage of the
// emitter (or of a benchmark body) fails this command instead of
// producing a plausible-looking but useless BENCH file.
func validate(data []byte) error {
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return err
	}
	if rep.Schema != "qnet-bench-v1" {
		return fmt.Errorf("schema %q, want qnet-bench-v1", rep.Schema)
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmarks in report")
	}
	seen := make(map[string]bool, len(rep.Benchmarks))
	for _, e := range rep.Benchmarks {
		switch {
		case e.Name == "":
			return fmt.Errorf("entry with empty name")
		case seen[e.Name]:
			return fmt.Errorf("duplicate benchmark %q", e.Name)
		case e.Iterations <= 0:
			return fmt.Errorf("%s: %d iterations", e.Name, e.Iterations)
		case e.NsPerOp <= 0:
			return fmt.Errorf("%s: ns/op = %g", e.Name, e.NsPerOp)
		case e.AllocsPerOp < 0:
			return fmt.Errorf("%s: allocs/op = %d", e.Name, e.AllocsPerOp)
		}
		seen[e.Name] = true
	}
	byName := make(map[string]entry, len(rep.Benchmarks))
	for _, e := range rep.Benchmarks {
		byName[e.Name] = e
	}
	// The tracer-overhead trio must be complete with positive
	// throughput, or the report cannot answer "what does telemetry
	// cost" — the question those entries exist for.
	for _, mode := range perfbench.TraceModes {
		name := traceName(mode)
		e, ok := byName[name]
		if !ok {
			return fmt.Errorf("missing benchmark %q", name)
		}
		if e.EventsPerSec <= 0 {
			return fmt.Errorf("%s: events/sec = %g", name, e.EventsPerSec)
		}
	}
	return nil
}

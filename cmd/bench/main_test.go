package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// testReport builds a valid report with the given ns/op samples for
// EngineSchedule, plus the tracer trio every report must carry.
func testReport(ns ...float64) report {
	rep := report{Schema: schema, CPUs: 2, GOMAXPROCS: 2, Count: len(ns)}
	var engine, traced []sample
	for _, v := range ns {
		engine = append(engine, sample{Iterations: 10, NsPerOp: v})
		traced = append(traced, sample{Iterations: 1, NsPerOp: 1e6, EventsPerSec: 5e6})
	}
	rep.Benchmarks = append(rep.Benchmarks, summarize("EngineSchedule", engine))
	for _, mode := range []string{"off", "on", "sampled"} {
		rep.Benchmarks = append(rep.Benchmarks, summarize(traceName(mode), traced))
	}
	return rep
}

func TestDecodeChecksSamplesAndSummaries(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*report)
		want   string // error substring, "" for a valid report
	}{
		{"valid", func(*report) {}, ""},
		{"old schema", func(r *report) { r.Schema = "qnet-bench-v1" }, "schema"},
		{"no gomaxprocs", func(r *report) { r.GOMAXPROCS = 0 }, "gomaxprocs"},
		{"sample count", func(r *report) { r.Count = 3 }, "2 samples, want 3"},
		{"mean", func(r *report) { r.Benchmarks[0].NsPerOp++ }, "do not match"},
		{"interval", func(r *report) { r.Benchmarks[0].NsPerOpCI95[1]++ }, "do not match"},
		{"bad sample", func(r *report) { r.Benchmarks[0].Samples[1].Iterations = 0 }, "sample 1"},
	} {
		rep := testReport(100, 120)
		tc.mutate(&rep)
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		_, err = decode(data)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestCompareMarksOnlySignificantChanges(t *testing.T) {
	base := testReport(100, 101, 99, 100)
	faster := testReport(50, 51, 49, 50)
	noise := testReport(101, 99, 100, 100)
	for _, tc := range []struct {
		name string
		cur  report
		star bool
	}{{"faster", faster, true}, {"noise", noise, false}} {
		var out bytes.Buffer
		compare(&out, base, tc.cur)
		var line string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "EngineSchedule ") {
				line = l
			}
		}
		if line == "" {
			t.Fatalf("%s: no EngineSchedule row in\n%s", tc.name, out.String())
		}
		if got := strings.HasSuffix(line, "*"); got != tc.star {
			t.Errorf("%s: row %q marked %v, want %v", tc.name, line, got, tc.star)
		}
	}
}

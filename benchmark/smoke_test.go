package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json this program must agree with.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeclaredMetricsMatch(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !equalSets(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, ours)
	}
	check := func(kind string, list []string, decl []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		var declaredNames []string
		for _, m := range decl {
			declaredNames = append(declaredNames, m.Name)
			if units[m.Name] != m.Unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, program prints %q", kind, m.Name, m.Unit, units[m.Name])
			}
		}
		if !equalSets(declaredNames, list) {
			t.Errorf("%s metrics: BENCHMARK.json %v, program %v", kind, declaredNames, list)
		}
	}
	check("end-to-end", endToEndMetrics, d.EndToEnd)
	check("per-layer", perLayerMetrics, d.PerLayer)
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloadsSmoke runs both passes of every workload with one timed
// op at the pinned seed.  Every op must match its pin, and the last line
// must carry exactly the declared metrics, with their units.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				cfg := runConfig{seed: pinSeed, traced: traced, setupReps: 1, minOps: 1,
					probeBudget: 10 * time.Millisecond, logf: t.Logf}
				var out bytes.Buffer
				if _, err := runOne(context.Background(), w, cfg, "", &out); err != nil {
					t.Fatal(err)
				}
				var line map[string]json.RawMessage
				if err := json.Unmarshal(lastLine(out.Bytes()), &line); err != nil {
					t.Fatalf("last line: %v\n%s", err, out.String())
				}
				var keys []string
				for k := range line {
					keys = append(keys, k)
				}
				if !equalSets(keys, []string{"correct", "attempted", "failed", "metrics"}) {
					t.Errorf("last line keys %v", keys)
				}
				var s summary
				if err := json.Unmarshal(lastLine(out.Bytes()), &s); err != nil {
					t.Fatal(err)
				}
				want := endToEndMetrics
				if traced {
					want = perLayerMetrics
				}
				var got []string
				for k, v := range s.Metrics {
					got = append(got, k)
					if v.Unit != units[k] {
						t.Errorf("%s unit %q, want %q", k, v.Unit, units[k])
					}
					if !traced && v.Value <= 0 {
						t.Errorf("%s = %v, want > 0", k, v.Value)
					}
				}
				if !equalSets(got, want) {
					t.Errorf("traced=%v metrics %v, want %v", traced, got, want)
				}
				if !s.Correct || s.Failed != 0 || s.Attempted < 2 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d\n%s", traced, s.Correct, s.Attempted, s.Failed, out.String())
				}
			}
		})
	}
}

// A run at another seed has no pin; its ops must repeat the first op.
func TestOtherSeedRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload; skipped under -short")
	}
	w, err := findWorkload("qft100_home_lossy")
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{seed: 11, traced: true, setupReps: 1, minOps: 1,
		probeBudget: 10 * time.Millisecond, logf: t.Logf}
	m, err := measure(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The warm-up op, one untraced op, one traced op and the detailed run.
	if m.failed != 0 || m.attempted != 4 {
		t.Errorf("attempted %d, failed %d; want 4 and 0", m.attempted, m.failed)
	}
	pinned, err := loadPin(w.pin)
	if err != nil {
		t.Fatal(err)
	}
	if m.values["fault.dropped_batches"] == float64(pinned.Total.DroppedBatches) {
		t.Errorf("seed 11 dropped exactly the pinned seed's %d batches; the seed does not reach the fault model", pinned.Total.DroppedBatches)
	}
}

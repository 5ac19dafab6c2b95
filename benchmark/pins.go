package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/qnet/simulate"
)

// pinSeed is the seed the pins in testdata/ were recorded at; it is
// also the default -seed.
const pinSeed = 7

//go:embed testdata/*.json
var pinFiles embed.FS

// pin is the recorded simulated output of one workload's op: a digest
// over every Result plus readable totals.  The model has no validated
// reference in this repository, so a pin checks that the output did not
// change, not that it is right.
type pin struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Points   int    `json:"points"`
	SHA256   string `json:"sha256"`
	// Total sums every field of the op's Results (Events zeroed); on a
	// mismatch its simulate.Diff against the new total names the
	// metrics that moved.
	Total simulate.Result `json:"total"`
}

// digest hashes the canonical JSON of every Result in order, with
// Events zeroed: the event count belongs to the engine, and an
// optimisation may legitimately merge events without changing what is
// simulated.
func digest(results []simulate.Result) string {
	canon := make([]simulate.Result, len(results))
	for i, r := range results {
		r.Events = 0
		canon[i] = r
	}
	data, err := json.Marshal(canon)
	if err != nil {
		panic(err) // Result is plain data; marshalling cannot fail
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// total sums every field of the Results, with Events zeroed.
func total(results []simulate.Result) simulate.Result {
	var t simulate.Result
	for _, r := range results {
		t.Exec += r.Exec
		t.Ops += r.Ops
		t.Channels += r.Channels
		t.LocalOps += r.LocalOps
		t.PairsDelivered += r.PairsDelivered
		t.PairHops += r.PairHops
		t.Turns += r.Turns
		t.DroppedBatches += r.DroppedBatches
		t.DeadLinks += r.DeadLinks
		t.ClassicalMessages += r.ClassicalMessages
		t.FailedBatches += r.FailedBatches
		t.MeanChannelLatency += r.MeanChannelLatency
		t.MaxChannelLatency += r.MaxChannelLatency
		t.TeleporterUtil += r.TeleporterUtil
		t.GeneratorUtil += r.GeneratorUtil
		t.PurifierUtil += r.PurifierUtil
	}
	return t
}

func newPin(workload string, seed int64, results []simulate.Result) pin {
	return pin{Workload: workload, Seed: seed, Points: len(results), SHA256: digest(results), Total: total(results)}
}

// loadPin reads the pin recorded for a pin stem.
func loadPin(stem string) (pin, error) {
	var p pin
	data, err := pinFiles.ReadFile("testdata/" + stem + ".json")
	if err != nil {
		return p, fmt.Errorf("no pin for %s (run with -update-pins): %w", stem, err)
	}
	if err := json.Unmarshal(data, &p); err != nil {
		return p, fmt.Errorf("pin %s: %w", stem, err)
	}
	return p, nil
}

// writePin stores a pin under dir.
func writePin(dir, stem string, p pin) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, stem+".json"), append(data, '\n'), 0o644)
}

// mismatch explains how results differ from the expected pin.
func (p pin) mismatch(results []simulate.Result) string {
	got := newPin(p.Workload, p.Seed, results)
	if got.SHA256 == p.SHA256 {
		return ""
	}
	msg := fmt.Sprintf("output digest %.12s, want %.12s (%d points, want %d)", got.SHA256, p.SHA256, got.Points, p.Points)
	if d := simulate.Diff(p.Total, got.Total); !d.IsZero() {
		msg += "; totals moved: " + d.String()
	}
	return msg
}

package main

import (
	"strings"
	"testing"

	"repro/qnet/simulate"
)

func TestPinIgnoresEventsOnly(t *testing.T) {
	results := []simulate.Result{{Ops: 3, Channels: 6, Events: 100}, {Ops: 4, PairHops: 9, Events: 50}}
	p := newPin("w", pinSeed, results)

	merged := []simulate.Result{results[0], results[1]}
	merged[0].Events = 7
	if msg := p.mismatch(merged); msg != "" {
		t.Errorf("changing only Events was reported: %s", msg)
	}

	moved := []simulate.Result{results[0], results[1]}
	moved[1].PairHops++
	msg := p.mismatch(moved)
	if msg == "" || !strings.Contains(msg, "pair-hops +1") {
		t.Errorf("a moved PairHops was reported as %q", msg)
	}
	if p.mismatch(results[:1]) == "" {
		t.Error("a missing point was not reported")
	}
}

func TestPinsLoad(t *testing.T) {
	for _, w := range workloads {
		p, err := loadPin(w.pin)
		if err != nil {
			t.Fatal(err)
		}
		if p.Seed != pinSeed || p.Points == 0 || len(p.SHA256) != 64 {
			t.Errorf("%s: pin %+v", w.pin, p)
		}
	}
}

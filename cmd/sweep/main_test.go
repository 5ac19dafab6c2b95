package main

import (
	"testing"

	"repro/qnet/fault"
	"repro/qnet/simulate"
)

// depthSweepSpace resolves depthSweepSpec on a 4x4 grid into the space
// the local depth sweep runs.
func depthSweepSpace(t *testing.T, fs fault.Spec) (simulate.Space, bool) {
	t.Helper()
	spec, auto, err := depthSweepSpec(4, 1, 0, fs)
	if err != nil {
		t.Fatal(err)
	}
	space, err := spec.Space()
	if err != nil {
		t.Fatal(err)
	}
	return space, auto
}

// TestDepthSweepRoutingAutoSwitch pins the depth sweep's routing
// auto-switch: injecting dead links flips the space to fault-adaptive
// routing (and reports it), drop-only faults and healthy meshes do
// not, and the switched configuration already carries a distinct cache
// key — a faulted ablation can never be served a default-routed
// result, or vice versa.
func TestDepthSweepRoutingAutoSwitch(t *testing.T) {
	healthy, auto := depthSweepSpace(t, fault.Spec{})
	if auto {
		t.Error("healthy space reported a routing auto-switch")
	}
	if len(healthy.Routings) != 0 {
		t.Errorf("healthy space routings = %v, want none", healthy.Routings)
	}

	dropOnly, auto := depthSweepSpace(t, fault.Spec{Drop: 0.1})
	if auto {
		t.Error("drop-only space reported a routing auto-switch")
	}
	if len(dropOnly.Routings) != 0 {
		t.Errorf("drop-only space routings = %v, want none", dropOnly.Routings)
	}

	dead, auto := depthSweepSpace(t, fault.Spec{DeadLinks: 0.1})
	if !auto {
		t.Error("dead-link space did not report the routing auto-switch")
	}
	pts, err := dead.Points()
	if err != nil {
		t.Fatal(err)
	}
	if got := pts[0].RoutingName(); got != "fault-adaptive" {
		t.Fatalf("dead-link point routing = %q, want fault-adaptive", got)
	}

	// The switch must be content-addressed: the same point under the
	// default routing hashes to a different result key.
	base := dead
	base.Routings = nil
	basePts, err := base.Points()
	if err != nil {
		t.Fatal(err)
	}
	switched, err := dead.Machine(pts[0])
	if err != nil {
		t.Fatal(err)
	}
	plain, err := base.Machine(basePts[0])
	if err != nil {
		t.Fatal(err)
	}
	if switched.CacheKey(pts[0].Program) == plain.CacheKey(basePts[0].Program) {
		t.Error("fault-adaptive and default routing share a cache key")
	}
}

package main

import (
	"testing"

	"repro/qnet/route"
)

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		name      string
		intervals [][2]int64
		lo, hi    int64
		want      int64
	}{
		{"none", nil, 0, 100, 0},
		{"one", [][2]int64{{10, 20}}, 0, 100, 10},
		{"disjoint", [][2]int64{{10, 20}, {30, 45}}, 0, 100, 25},
		{"overlapping", [][2]int64{{10, 30}, {20, 40}}, 0, 100, 30},
		{"nested", [][2]int64{{10, 50}, {20, 30}}, 0, 100, 40},
		{"touching", [][2]int64{{10, 20}, {20, 30}}, 0, 100, 20},
		{"unsorted", [][2]int64{{60, 70}, {10, 20}, {15, 25}}, 0, 100, 25},
		{"clipped", [][2]int64{{-10, 10}, {90, 120}}, 0, 100, 20},
		{"outside", [][2]int64{{150, 160}}, 0, 100, 0},
		{"empty", [][2]int64{{40, 40}}, 0, 100, 0},
	} {
		if got := unionLen(tc.intervals, tc.lo, tc.hi); got != tc.want {
			t.Errorf("%s: unionLen = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	call := span{Name: "call", Start: 10, End: 90}
	children := [][2]int64{
		{20, 40},
		{30, 50}, // concurrent with the first
		{60, 70},
		{85, 95}, // runs past the parent's end
	}
	if got := selfTime(call, children); got != 80-30-10-5 {
		t.Errorf("self time = %d, want 35", got)
	}
	if got := selfTime(call, nil); got != 80 {
		t.Errorf("self time without children = %d, want the duration 80", got)
	}
}

func TestRecorderScopes(t *testing.T) {
	r := newRecorder()
	op := r.open("op")
	call := r.open("call")
	r.add("route.Route", r.now(), r.now())
	r.close(call)
	r.add("after", r.now(), r.now())
	r.close(op)
	spans := r.snapshot()
	for i, want := range []int{-1, op, call, op} {
		if spans[i].Parent != want {
			t.Errorf("span %d (%s) parent = %d, want %d", i, spans[i].Name, spans[i].Parent, want)
		}
	}
	if spans[op].End < spans[call].End {
		t.Errorf("op ended before its child")
	}
}

// The timing wrapper must look exactly like the policy it wraps to the
// simulator, which picks the route cache and the fault path by type.
func TestTracedPolicyKeepsCapabilities(t *testing.T) {
	r := newRecorder()
	for _, p := range []route.Policy{route.XYOrder(), route.LeastCongested(), route.FaultAdaptive(), nil} {
		tp := tracedPolicy(p, r)
		if tp.Name() != route.NameOf(p) {
			t.Errorf("traced %s: name %q", route.NameOf(p), tp.Name())
		}
		want := route.IsDeterministic(p)
		if p == nil {
			want = route.IsDeterministic(route.Default())
		}
		if route.IsDeterministic(tp) != want {
			t.Errorf("traced %s: deterministic = %v, want %v", route.NameOf(p), !want, want)
		}
		_, innerFA := p.(route.FaultAware)
		if _, fa := tp.(route.FaultAware); fa != innerFA {
			t.Errorf("traced %s: fault-aware = %v, want %v", route.NameOf(p), fa, innerFA)
		}
	}
}

// Package distrib is the distributed sweep service: a coordinator
// that partitions a sweep Space into shards of run points, dispatches
// them to worker processes over a pluggable transport, and merges the
// streamed results back into the same []simulate.SweepPoint contract
// single-process callers already have.
//
// The layer cake, top to bottom:
//
//	Coordinator ── plans shards, dispatches, retries, merges
//	   │ Transport (HTTPTransport over sockets, Loopback in-process)
//	Worker ────── executes a shard via the in-process sweep engine
//	   │ simulate.Store (shared: RemoteStore → the coordinator's store)
//	simulate ──── Machine.Run per point, content-addressed results
//
// Scale-out is nearly free because every run point has been
// content-addressed since the cache layer landed: a point's
// simulate.Key is a host-independent hash of its fully-resolved
// configuration, so any worker may compute any point, a shard
// reassigned from a dead worker re-hits the fleet's shared store for
// the points the dead worker already finished, and a restarted sweep
// merges every shard the store already holds without dispatching it.
//
// The wire protocol is deliberately small (three HTTP endpoints per
// worker — POST /v1/jobs, GET /v1/jobs/{id}/stream as
// newline-delimited JSON, GET /v1/status — plus a key/value store
// API on the coordinator), and the Transport interface keeps it
// pluggable: the in-process Loopback transport runs the whole
// subsystem, including injected worker death, without opening a
// socket.
package distrib

import (
	"fmt"
	"strings"

	"repro/qnet"
	"repro/qnet/fault"
	"repro/qnet/route"
	"repro/qnet/simulate"
)

// SpaceSpec is the wire form of a simulate.Space: every dimension in
// plain serializable data (layouts and routing policies by canonical
// name, options as explicit fields), so a coordinator can ship it to
// workers as JSON and both sides expand the identical point list.
type SpaceSpec struct {
	// Grids are the mesh dimensions to sweep.
	Grids []qnet.Grid `json:"grids"`
	// Layouts are the floorplans to sweep, by canonical name
	// ("HomeBase", "MobileQubit"; see LayoutNames).
	Layouts []string `json:"layouts"`
	// Resources are the per-node resource allocations to sweep.
	Resources []simulate.Resources `json:"resources"`
	// Programs are the instruction streams to sweep.
	Programs []qnet.Program `json:"programs"`
	// Depths are the purifier depths to sweep (empty: the engine's
	// default, depth 3).
	Depths []int `json:"depths,omitempty"`
	// Routings are the routing policies to sweep, by canonical name
	// (empty: dimension-order routing).
	Routings []string `json:"routings,omitempty"`
	// Faults are the mesh fault specs to sweep (empty: a healthy mesh).
	// fault.Spec is already plain serializable data, so the wire form is
	// the spec itself; both sides materialize identical per-point fault
	// patterns because patterns are drawn from the point's seed.
	Faults []fault.Spec `json:"faults,omitempty"`
	// Seeds is the seed ensemble (empty: seed 0).
	Seeds []int64 `json:"seeds,omitempty"`
	// FailureRate is the purification failure-injection rate applied
	// machine-wide (the wire form of simulate.WithFailureRate).
	FailureRate float64 `json:"failure_rate,omitempty"`
}

// Space resolves the spec into a runnable simulate.Space, parsing
// layout and routing names and materializing the option fields.
func (s SpaceSpec) Space() (simulate.Space, error) {
	sp := simulate.Space{
		Grids:     s.Grids,
		Resources: s.Resources,
		Programs:  s.Programs,
		Depths:    s.Depths,
		Faults:    s.Faults,
		Seeds:     s.Seeds,
	}
	for _, name := range s.Layouts {
		l, err := ParseLayout(name)
		if err != nil {
			return simulate.Space{}, err
		}
		sp.Layouts = append(sp.Layouts, l)
	}
	for _, name := range s.Routings {
		p, err := route.Parse(name)
		if err != nil {
			// route.Parse's error is a plain string; wrap it into the
			// structured form every other wire-validation failure uses,
			// so coordinators can errors.As-match bad specs uniformly.
			return simulate.Space{}, &qnet.ConfigError{Field: "Routings", Value: name, Reason: err.Error()}
		}
		sp.Routings = append(sp.Routings, p)
	}
	if s.FailureRate != 0 {
		sp.Options = append(sp.Options, simulate.WithFailureRate(s.FailureRate))
	}
	return sp, nil
}

// Size returns the number of points the spec expands to (the product
// of its dimension sizes, with the engine's defaults for empty
// optional dimensions).
func (s SpaceSpec) Size() (int, error) {
	sp, err := s.Space()
	if err != nil {
		return 0, err
	}
	return sp.Size(), nil
}

// ParseLayout resolves a floorplan by the canonical name its String
// method prints ("HomeBase" or "MobileQubit", case-insensitive).
func ParseLayout(name string) (simulate.Layout, error) {
	switch strings.ToLower(name) {
	case "homebase", "home-base":
		return simulate.HomeBase, nil
	case "mobilequbit", "mobile-qubit":
		return simulate.MobileQubit, nil
	default:
		return 0, &qnet.ConfigError{Field: "Layout", Value: name, Reason: `want "HomeBase" or "MobileQubit"`}
	}
}

// LayoutNames renders layouts to their canonical wire names, the
// inverse of ParseLayout.
func LayoutNames(layouts []simulate.Layout) []string {
	out := make([]string, len(layouts))
	for i, l := range layouts {
		out[i] = l.String()
	}
	return out
}

// RoutingNames renders routing policies to their canonical wire
// names (nil canonicalizes to "xy"), the inverse of route.Parse.
func RoutingNames(policies []route.Policy) []string {
	out := make([]string, len(policies))
	for i, p := range policies {
		out[i] = route.NameOf(p)
	}
	return out
}

// Job is one shard dispatch: the full space (so the worker expands the
// identical point list) plus the indices of the points this shard
// owns, and optionally the URL of the fleet's shared result store.
type Job struct {
	// ID identifies the job on the worker that accepted it (assigned
	// by the worker; empty in the submitted body).
	ID string `json:"id,omitempty"`
	// Space is the sweep space the indices refer into.
	Space SpaceSpec `json:"space"`
	// Indices are the Point.Index values of this shard, into the
	// deterministic expansion of Space.
	Indices []int `json:"indices"`
	// StoreURL, when set, is the base URL of the shared remote result
	// store (the coordinator's StoreServer) the worker must consult
	// instead of its local store.
	StoreURL string `json:"store_url,omitempty"`
}

// Validate rejects malformed jobs before any simulation work: an
// index list that is empty or out of the space's range.
func (j Job) Validate() error {
	n, err := j.Space.Size()
	if err != nil {
		return err
	}
	if len(j.Indices) == 0 {
		return &qnet.ConfigError{Field: "Job.Indices", Value: 0, Reason: "shard must contain at least one point"}
	}
	for _, idx := range j.Indices {
		if idx < 0 || idx >= n {
			return &qnet.ConfigError{Field: "Job.Indices", Value: idx, Reason: fmt.Sprintf("point index out of range [0,%d)", n)}
		}
	}
	return nil
}

// PointResult is one finished run point on the wire: the point's index
// into the space's deterministic expansion, its Result, the error
// string for a failed run, and whether the result came from the store
// rather than a fresh simulation.
type PointResult struct {
	// Index is the Point.Index this result belongs to.
	Index int `json:"index"`
	// Result is the run's result (zero when Err is set).
	Result simulate.Result `json:"result"`
	// Err is the failure message of a failed point ("" on success).
	Err string `json:"err,omitempty"`
	// Cached reports that the result was served from the shared store.
	Cached bool `json:"cached,omitempty"`
}

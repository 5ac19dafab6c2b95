package netsim

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/mesh"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// StallError reports that the event loop drained before the program
// finished: some operation is blocked forever (historically, a routing
// policy whose turn model admits a dependency cycle).  The simulator
// detects the stall and returns this structured error instead of
// hanging — the engine has no pending events for blocked waiters, so a
// deadlocked run terminates immediately.
type StallError struct {
	// Completed and Total are the program's finished and total op
	// counts at the stall.
	Completed, Total int
}

// Error renders the stall.
func (e *StallError) Error() string {
	return fmt.Sprintf("netsim: simulation stalled with %d/%d ops done", e.Completed, e.Total)
}

// Detail carries per-component statistics of a run, for bottleneck
// analysis and visualization.  It accompanies Result (which stays a
// flat, comparable summary).
type Detail struct {
	Grid mesh.Grid
	// TeleporterUtil, PurifierUtil are per-tile utilizations, indexed
	// row-major.
	TeleporterUtil []float64
	PurifierUtil   []float64
	// Turns is the per-tile count of X/Y turns routed through the node.
	Turns []uint64
	// GeneratorUtil is the per-link generator utilization, indexed like
	// Grid.Links().
	GeneratorUtil []float64
}

// RunDetailedContext is RunContext plus per-component statistics.
func RunDetailedContext(ctx context.Context, cfg Config, prog workload.Program) (Result, *Detail, error) {
	s, err := execute(ctx, cfg, prog)
	if err != nil {
		return Result{}, nil, err
	}

	d := &Detail{Grid: cfg.Grid}
	d.TeleporterUtil = make([]float64, len(s.nodes))
	d.Turns = make([]uint64, len(s.nodes))
	for i := range s.nodes {
		d.TeleporterUtil[i] = s.nodes[i].utilization()
		d.Turns[i] = s.nodes[i].turns
	}
	d.PurifierUtil = make([]float64, len(s.purify))
	for i, p := range s.purify {
		d.PurifierUtil[i] = p.Utilization()
	}
	// s.gnodes is indexed by mesh.Grid.LinkIndex, which is exactly the
	// Links() enumeration order Detail documents.
	d.GeneratorUtil = make([]float64, len(s.gnodes))
	for i, g := range s.gnodes {
		d.GeneratorUtil[i] = g.Utilization()
	}
	return s.result(prog), d, nil
}

// execute validates the inputs, builds the simulator and runs its event
// loop to completion, returning the drained simulator for RunContext
// and RunDetailedContext to summarize.
func execute(ctx context.Context, cfg Config, prog workload.Program) (*simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := CheckProgram(cfg.Grid, prog); err != nil {
		return nil, err
	}

	s := &simulator{cfg: cfg, engine: sim.New()}
	if err := s.build(prog); err != nil {
		return nil, err
	}
	s.tryIssue()
	if err := s.engine.Run(ctx); err != nil {
		return nil, fmt.Errorf("netsim: run aborted: %w", err)
	}
	if s.err != nil {
		// A structured mid-run abort (blocked route, partitioned pair,
		// exhausted resend budget): the event loop drained cleanly, the
		// error explains why the program could not complete.
		return nil, s.err
	}
	if !s.sch.Done() {
		return nil, &StallError{Completed: s.sch.Completed(), Total: s.sch.Len()}
	}
	return s, nil
}

// Heatmap renders one per-tile metric as an ASCII grid: each tile shows
// a digit 0-9 scaling with utilization against the map's maximum
// (".": zero).
func (d *Detail) Heatmap(metric string) (string, error) {
	var values []float64
	switch metric {
	case "teleporter":
		values = d.TeleporterUtil
	case "purifier":
		values = d.PurifierUtil
	default:
		return "", fmt.Errorf("netsim: unknown heatmap metric %q (want teleporter or purifier)", metric)
	}
	max := 0.0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s utilization (max %.1f%%)\n", metric, 100*max)
	for y := 0; y < d.Grid.Height; y++ {
		for x := 0; x < d.Grid.Width; x++ {
			b.WriteByte(report.Shade(values[d.Grid.Index(mesh.Coord{X: x, Y: y})], max))
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// HottestTile returns the coordinate and value of the highest
// teleporter-utilization tile.
func (d *Detail) HottestTile() (mesh.Coord, float64) {
	best, bestIdx := -1.0, 0
	for i, v := range d.TeleporterUtil {
		if v > best {
			best, bestIdx = v, i
		}
	}
	return d.Grid.CoordOf(bestIdx), best
}

// Benchmarks regenerating every table and figure of the paper, plus
// ablations of the design decisions called out in DESIGN.md.  Run with:
//
//	go test -bench=. -benchmem ./internal/figures/
//
// Each BenchmarkFigN measures the full recomputation of that figure's
// data from the models; BenchmarkAblation* vary one design choice.
package figures_test

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/fidelity"
	"repro/internal/figures"
	"repro/internal/mesh"
	"repro/internal/netsim"
	"repro/internal/phys"
	"repro/internal/purify"
	"repro/internal/workload"

	"repro/qnet/channel"
)

var base = phys.IonTrap2006()

func BenchmarkTable1Constants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figures.Table1(base)
		if t == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkTable2Constants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figures.Table2(base)
		if t == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkFig8Purification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := purify.Fig8Series(base, figures.Fig8InitialFidelities, 25)
		if len(pts) == 0 {
			b.Fatal("empty series")
		}
	}
}

func BenchmarkFig9ChainedTeleport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := figures.Fig9Series(base, figures.Fig9InitialErrors, 70)
		if len(pts) == 0 {
			b.Fatal("empty series")
		}
	}
}

func BenchmarkFig10TotalPairs(b *testing.B) {
	cfg := channel.DefaultDistribution(base)
	hops := figures.DistanceHops()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := figures.DistanceSeries(cfg, hops)
		if len(pts) == 0 {
			b.Fatal("empty series")
		}
	}
}

func BenchmarkFig11TeleportedPairs(b *testing.B) {
	// Same evaluation as Figure 10 but asserting the teleported metric,
	// benchmarked separately because the paper reports them as distinct
	// figures.
	cfg := channel.DefaultDistribution(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range channel.Schemes {
			c := cfg.Evaluate(s, 60)
			if c.TeleportedPairs <= 0 {
				b.Fatal("no teleported pairs")
			}
		}
	}
}

func BenchmarkFig12ErrorSweep(b *testing.B) {
	rates := figures.Fig12Rates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := figures.Fig12Series(base, rates, 10)
		if len(pts) == 0 {
			b.Fatal("empty series")
		}
	}
}

func BenchmarkFig16ResourceSweep(b *testing.B) {
	// The full-paper scale (16x16, QFT-256) takes minutes; the benchmark
	// uses the quick 6x6 configuration with a single seed, so it
	// measures simulation rather than cache hits.  cmd/figures -fig 16
	// -grid 16 regenerates the full-scale figure.
	cfg := figures.Fig16Config{GridSize: 6, Area: 48, Ratios: []int{1, 8}, Seeds: []int64{1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := figures.Fig16(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(data.Rows) != 4 {
			b.Fatalf("rows = %d", len(data.Rows))
		}
	}
}

func BenchmarkCrossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if d := base.CrossoverCells(); d < 100 {
			b.Fatalf("crossover %d", d)
		}
	}
}

// --- Ablations -----------------------------------------------------------

func BenchmarkAblationProtocol(b *testing.B) {
	// DEJMPS vs BBPSSW as the system-wide purification protocol: the
	// paper picks DEJMPS after Figure 8; this measures the cost of the
	// choice on a 20-hop endpoint-purified channel.
	for _, proto := range []purify.Protocol{purify.DEJMPS{Params: base}, purify.BBPSSW{Params: base}} {
		proto := proto
		b.Run(proto.Name(), func(b *testing.B) {
			cfg := channel.DefaultDistribution(base)
			cfg.Protocol = proto
			cfg.MaxEndpointRounds = 80
			for i := 0; i < b.N; i++ {
				c := cfg.Evaluate(channel.EndpointsOnly, 20)
				if !c.Feasible {
					b.Fatal("infeasible")
				}
			}
		})
	}
}

func BenchmarkAblationQueueDepth(b *testing.B) {
	// Queue purifier depth (the paper fixes 3): cost of pushing 1<<12
	// pairs through one queue purifier at each depth.
	for depth := 1; depth <= 5; depth++ {
		depth := depth
		b.Run(benchName("depth", depth), func(b *testing.B) {
			in := fidelity.Werner(0.995)
			for i := 0; i < b.N; i++ {
				q, err := purify.NewQueuePurifier(purify.DEJMPS{Params: base}, depth)
				if err != nil {
					b.Fatal(err)
				}
				emitted := 0
				for k := 0; k < 1<<12; k++ {
					if res := q.Offer(in); res.Emitted {
						emitted++
					}
				}
				if emitted != (1<<12)>>uint(depth) {
					b.Fatalf("emitted %d", emitted)
				}
			}
		})
	}
}

func BenchmarkAblationHopLength(b *testing.B) {
	// Teleporter spacing (the paper derives 600 cells from the latency
	// crossover): channel cost at alternative spacings.
	for _, cells := range []int{100, 600, 2400} {
		cells := cells
		b.Run(benchName("cells", cells), func(b *testing.B) {
			cfg := channel.DefaultDistribution(base)
			cfg.HopCells = cells
			for i := 0; i < b.N; i++ {
				c := cfg.Evaluate(channel.EndpointsOnly, 20)
				if !c.Feasible {
					b.Fatal("infeasible")
				}
			}
		})
	}
}

func BenchmarkAblationLayout(b *testing.B) {
	// Home Base vs Mobile Qubit on QFT-36 with constrained resources.
	grid, err := mesh.NewGrid(6, 6)
	if err != nil {
		b.Fatal(err)
	}
	prog := workload.QFT(36)
	for _, layout := range []netsim.Layout{netsim.HomeBase, netsim.MobileQubit} {
		layout := layout
		b.Run(layout.String(), func(b *testing.B) {
			cfg := netsim.DefaultConfig(grid, layout, 16, 16, 8)
			for i := 0; i < b.N; i++ {
				res, err := netsim.RunContext(context.Background(), cfg, prog)
				if err != nil {
					b.Fatal(err)
				}
				if res.Exec <= 0 {
					b.Fatal("no progress")
				}
			}
		})
	}
}

func BenchmarkAblationStorage(b *testing.B) {
	// Per-link storage (t cells per incoming link): simulator throughput
	// with starved vs ample storage, isolated by fixing g and p high.
	grid, err := mesh.NewGrid(6, 6)
	if err != nil {
		b.Fatal(err)
	}
	prog := workload.QFT(36)
	for _, t := range []int{8, 32, 128} {
		t := t
		b.Run(benchName("t", t), func(b *testing.B) {
			cfg := netsim.DefaultConfig(grid, netsim.HomeBase, t, 256, 256)
			for i := 0; i < b.N; i++ {
				res, err := netsim.RunContext(context.Background(), cfg, prog)
				if err != nil {
					b.Fatal(err)
				}
				if res.Exec <= 0 {
					b.Fatal("no progress")
				}
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}

package simulate_test

import (
	"context"
	"fmt"
	"log"

	"repro/qnet"
	"repro/qnet/simulate"
)

// Example_machineRun builds one simulated machine and executes a QFT
// instruction stream on it — the quickstart of the qnet/simulate API.
func Example_machineRun() {
	grid, err := qnet.NewGrid(4, 4)
	if err != nil {
		log.Fatal(err)
	}
	m, err := simulate.New(grid, simulate.MobileQubit,
		simulate.WithResources(16, 16, 8),
		simulate.WithPurifyDepth(3))
	if err != nil {
		log.Fatal(err)
	}
	res, err := m.Run(context.Background(), qnet.QFT(grid.Tiles()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ops=%d local=%d channels=%d pairs=%d\n",
		res.Ops, res.LocalOps, res.Channels, res.PairsDelivered)
	// Output:
	// ops=120 local=0 channels=135 pairs=52920
}

// Example_sweep expands a small parameter space — both layouts at two
// allocations — and fans the runs out across worker goroutines.
// Results come back in deterministic expansion order regardless of
// worker count.
func Example_sweep() {
	grid, err := qnet.NewGrid(4, 4)
	if err != nil {
		log.Fatal(err)
	}
	points, err := simulate.Sweep(context.Background(), simulate.Space{
		Grids:   []qnet.Grid{grid},
		Layouts: []simulate.Layout{simulate.HomeBase, simulate.MobileQubit},
		Resources: []simulate.Resources{
			{Teleporters: 16, Generators: 16, Purifiers: 8},
			{Teleporters: 8, Generators: 8, Purifiers: 4},
		},
		Programs: []qnet.Program{qnet.QFT(grid.Tiles())},
	}, simulate.WithWorkers(4))
	if err != nil {
		log.Fatal(err)
	}
	for _, pt := range points {
		fmt.Printf("%v t=%d: ops=%d\n",
			pt.Point.Layout, pt.Point.Resources.Teleporters, pt.Result.Ops)
	}
	// Output:
	// HomeBase t=16: ops=120
	// HomeBase t=8: ops=120
	// MobileQubit t=16: ops=120
	// MobileQubit t=8: ops=120
}

// Example_cachedSweep runs the same sweep twice against one result
// cache: every point of the second pass is served from the cache
// without simulating, which is what makes repeated figure generation
// incremental.  A disk-backed cache (NewDiskCache) passed to WithCache
// extends the same behaviour across processes.
func Example_cachedSweep() {
	grid, err := qnet.NewGrid(4, 4)
	if err != nil {
		log.Fatal(err)
	}
	space := simulate.Space{
		Grids:     []qnet.Grid{grid},
		Layouts:   []simulate.Layout{simulate.HomeBase, simulate.MobileQubit},
		Resources: []simulate.Resources{{Teleporters: 16, Generators: 16, Purifiers: 8}},
		Programs:  []qnet.Program{qnet.QFT(grid.Tiles())},
		Seeds:     []int64{1, 2, 3},
		Options:   []simulate.Option{simulate.WithFailureRate(0.1)},
	}
	cache := simulate.NewCache(0)
	ctx := context.Background()
	cold, err := simulate.Sweep(ctx, space, simulate.WithCache(cache))
	if err != nil {
		log.Fatal(err)
	}
	warm, err := simulate.Sweep(ctx, space, simulate.WithCache(cache))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cold:", simulate.Summarize(cold))
	fmt.Println("warm:", simulate.Summarize(warm))
	// Output:
	// cold: 6 points, 0 cached (0.0%), 0 failed
	// warm: 6 points, 6 cached (100.0%), 0 failed
}

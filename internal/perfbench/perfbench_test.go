package perfbench

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func BenchmarkEngineSchedule(b *testing.B) { EngineSchedule(b) }

func BenchmarkEngineScheduleMix(b *testing.B) { EngineScheduleMix(b) }

func BenchmarkEngineScheduleDistinct(b *testing.B) { EngineScheduleDistinct(b) }

func BenchmarkResourceServe(b *testing.B) { ResourceServe(b) }

func BenchmarkSemaphoreCycle(b *testing.B) { SemaphoreCycle(b) }

func BenchmarkQFT(b *testing.B) {
	for _, cfg := range FullRunConfigs() {
		b.Run(cfg.Name, QFTRun(cfg.Layout, cfg.Policy))
	}
}

func BenchmarkSweep(b *testing.B) {
	b.Run("workers=8", SweepWorkers(8))
}

func BenchmarkDistribSweep(b *testing.B) {
	b.Run("workers=2", DistributedSweep(2))
}

func BenchmarkTraceQFT(b *testing.B) {
	for _, mode := range TraceModes {
		b.Run("trace="+mode, TraceQFT(mode))
	}
}

// TestEngineStepZeroAllocWithoutProbe pins the telemetry hook's
// disabled cost: with no probe attached, the engine's schedule+step
// churn must not allocate at all.  The probe hook is one nil check on
// the hot path; if it ever grows an allocation, tracer-off runs pay
// for telemetry nobody asked for.  The EngineScheduleMix and
// EngineScheduleDistinct churns are pinned at 0 allocs/op the same way.
func TestEngineStepZeroAllocWithoutProbe(t *testing.T) {
	const pending = 256
	e := sim.New()
	fn := func() {}
	for i := 0; i < pending; i++ {
		e.Schedule(time.Duration(i+1)*time.Microsecond, fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(pending*time.Microsecond, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("schedule+step with no probe: %.1f allocs/op, want 0", allocs)
	}
	for name, build := range map[string]func() (func(), error){
		"EngineScheduleMix":      engineScheduleMixLoop,
		"EngineScheduleDistinct": engineScheduleDistinctLoop,
	} {
		step, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(10000, step); allocs != 0 {
			t.Errorf("%s: %.4f allocs/op, want 0", name, allocs)
		}
	}
}

// TestWaiterCyclesZeroAlloc pins the ResourceServe and SemaphoreCycle
// bodies at 0 allocs/op, as TestEngineStepZeroAllocWithoutProbe pins
// EngineSchedule: a waiter queued in the call form is recycled, never
// re-allocated.
func TestWaiterCyclesZeroAlloc(t *testing.T) {
	for name, build := range map[string]func() (func(), error){
		"ResourceServe":  resourceServeLoop,
		"SemaphoreCycle": semaphoreCycleLoop,
	} {
		step, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", name, allocs)
		}
	}
}

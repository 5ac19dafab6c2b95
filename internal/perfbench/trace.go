// The telemetry tracer's overhead benchmarks: the same full QFT run as
// QFTRun with the tracer off, sampling finely, and sampling coarsely,
// so the cost of observation is a tracked number rather than folklore.

package perfbench

import (
	"testing"
	"time"

	"repro/qnet/simulate"
	"repro/qnet/trace"
)

// TraceModes are the tracer-overhead benchmark's modes, in the order
// cmd/bench records them: "off" is the zero-cost baseline (no tracer
// attached — one nil check per engine step), "on" starts sampling every
// simulated microsecond (the package default: the series fills and
// doubles its interval until the whole run fits), "sampled" samples
// every simulated millisecond (a few hundred samples per run, no
// doubling).
var TraceModes = []string{"off", "on", "sampled"}

// traceModeInterval maps a TraceModes entry to its sampling interval
// (zero = no tracer).
func traceModeInterval(b *testing.B, mode string) (time.Duration, bool) {
	switch mode {
	case "off":
		return 0, false
	case "on":
		return time.Microsecond, true
	case "sampled":
		return time.Millisecond, true
	}
	b.Fatalf("unknown trace mode %q", mode)
	return 0, false
}

// TraceQFT returns a benchmark running the full benchGrid QFT
// (MobileQubit, default routing) with the telemetry tracer in the given
// mode.  One iteration is one complete run; comparing the modes'
// events/sec against each other — and "off" against the plain QFTRun
// numbers — pins the tracer's overhead.
func TraceQFT(mode string) func(*testing.B) {
	return func(b *testing.B) {
		interval, traced := traceModeInterval(b, mode)
		m, prog := qftMachine(b, benchGrid, simulate.MobileQubit, 16, 16, 8)
		if traced {
			// One tracer reused across iterations: each run rebinds it,
			// which resets its series.
			m = m.WithTrace(trace.New(trace.Config{Interval: interval}))
		}
		timeRuns(b, m, prog)
	}
}

package channel

import (
	"fmt"
	"time"

	"repro/internal/fidelity"
	"repro/internal/phys"
	"repro/internal/purify"

	"repro/qnet"
)

// electrodesPerTrap is the number of electrode pairs forming one ion
// trap in the Figure 2 layout (three: confinement on both sides plus the
// well centre).
const electrodesPerTrap = 3

// phasesPerCell is the number of waveform phases needed to shuttle an
// ion across one cell: the well must be squeezed, shifted and re-opened,
// each phase changing the levels of the adjacent electrode pairs (the
// waveform staircase of Figure 2).
const phasesPerCell = 6

// driveLevel is a discrete electrode drive level of the simplified
// waveform model: low confines, mid carries, high pushes.
type driveLevel int8

// The three drive levels.
const (
	low driveLevel = iota
	mid
	high
)

// String names the level.
func (l driveLevel) String() string {
	switch l {
	case low:
		return "low"
	case mid:
		return "mid"
	case high:
		return "high"
	default:
		return fmt.Sprintf("Level(%d)", int8(l))
	}
}

// pulseStep is one phase of a shuttle waveform: the set of electrode
// levels applied simultaneously.  Electrodes are indexed along the
// channel; each index addresses a top/bottom pair driven together (the a
// and b traces of Figure 2 mirror each other).
type pulseStep struct {
	// Phase is the step index within the move.
	Phase int
	// Levels maps electrode index to the drive level it must take this
	// phase.  Electrodes not listed hold their previous level.
	Levels map[int]driveLevel
}

// MovePlan is the electrode-level waveform program that shuttles an
// ion between traps (Figure 2).
type MovePlan struct {
	FromTrap, ToTrap int
	Steps            []pulseStep
}

// PlanMove builds the pulse program to shuttle one ion from trap from to
// trap to along a straight channel.  The returned plan has
// phasesPerCell × |to-from| steps, each touching the three electrode
// pairs around the ion's current position.
func PlanMove(from, to int) (MovePlan, error) {
	if from < 0 || to < 0 {
		return MovePlan{}, fmt.Errorf("channel: trap indices must be >= 0 (got %d -> %d)", from, to)
	}
	plan := MovePlan{FromTrap: from, ToTrap: to}
	if from == to {
		return plan, nil
	}
	dir := 1
	if to < from {
		dir = -1
	}
	phase := 0
	for pos := from; pos != to; pos += dir {
		next := pos + dir
		// Six phases per cell: lower the barrier toward `next`, raise the
		// well at `pos`, carry, confine at `next`, restore the barrier,
		// settle.  The exact electro-dynamics are irrelevant to the
		// architecture study; what matters is the signal count and the
		// locality (three electrode pairs per phase).
		cells := [][]struct {
			offset int
			level  driveLevel
		}{
			{{pos, mid}, {next, mid}},
			{{pos, high}, {next, mid}},
			{{pos, high}, {next, low}},
			{{pos, mid}, {next, low}},
			{{pos, low}, {next, low}},
			{{next, mid}, {pos, low}},
		}
		for _, settings := range cells {
			step := pulseStep{Phase: phase, Levels: make(map[int]driveLevel, len(settings))}
			for _, s := range settings {
				step.Levels[s.offset] = s.level
			}
			plan.Steps = append(plan.Steps, step)
			phase++
		}
	}
	return plan, nil
}

// Cells returns the distance of the move in cells.
func (m MovePlan) Cells() int {
	d := m.ToTrap - m.FromTrap
	if d < 0 {
		d = -d
	}
	return d
}

// Signals returns the total electrode level changes the plan issues —
// the control-complexity cost of the move.
func (m MovePlan) Signals() int {
	n := 0
	for _, s := range m.Steps {
		n += len(s.Levels)
	}
	return n
}

// Duration returns the wall-clock time of the move under the device
// parameters (Eq 2).
func (m MovePlan) Duration(p phys.Params) time.Duration {
	return p.BallisticTime(m.Cells())
}

// Fidelity returns the fidelity of a perfect qubit after the move (Eq 1).
func (m MovePlan) Fidelity(p phys.Params) float64 {
	return fidelity.Ballistic(p, 1, m.Cells())
}

// BallisticDistribution models the Figure 4 methodology end to end:
// EPR pairs are generated at the midpoint of a channel of
// DistanceCells ion traps, each half shuttled DistanceCells/2 to its
// endpoint purifier, and the arrivals tree-purified until the pair
// error is at or below TargetError.
type BallisticDistribution struct {
	Params phys.Params
	// DistanceCells is the endpoint-to-endpoint channel length.
	DistanceCells int
	// TargetError is the delivered pair error bound, in [0, 1); 0
	// selects the 7.5e-5 threshold.
	TargetError float64
	// MaxRounds caps endpoint purification, at least 0; 0 selects 40.
	MaxRounds int
}

// BallisticResult is the cost of delivering one above-target EPR pair
// ballistically.
type BallisticResult struct {
	// ArrivalError is the pair error after both halves are shuttled.
	ArrivalError float64
	// Rounds is the endpoint purification tree depth.
	Rounds int
	// FinalError is the delivered pair error.
	FinalError float64
	// PairsConsumed is the expected raw pairs per delivered pair.
	PairsConsumed float64
	// SetupLatency is movement plus sequential purification rounds.
	SetupLatency time.Duration
	// ControlSignals counts electrode level changes to shuttle all
	// consumed pairs (both halves).
	ControlSignals int
	// Feasible is false when purification cannot reach the target.
	Feasible bool
}

// Evaluate runs the distribution model.  A TargetError outside [0, 1)
// or a negative MaxRounds is a *qnet.ConfigError naming the field.
func (d BallisticDistribution) Evaluate() (BallisticResult, error) {
	if d.DistanceCells < 2 {
		return BallisticResult{}, fmt.Errorf("channel: distance must be >= 2 cells, got %d", d.DistanceCells)
	}
	if err := d.Params.Validate(); err != nil {
		return BallisticResult{}, err
	}
	if !(d.TargetError >= 0 && d.TargetError < 1) {
		return BallisticResult{}, &qnet.ConfigError{Field: "TargetError", Value: d.TargetError, Reason: "must be in [0,1) (0 selects the default)"}
	}
	if d.MaxRounds < 0 {
		return BallisticResult{}, &qnet.ConfigError{Field: "MaxRounds", Value: d.MaxRounds, Reason: "must be >= 0 (0 selects the default)"}
	}
	target := d.TargetError
	if target == 0 {
		target = fidelity.ThresholdError
	}
	maxRounds := d.MaxRounds
	if maxRounds == 0 {
		maxRounds = 40
	}

	// Both halves move half the distance; the pair accrues the full
	// distance of movement error (as in the chained-teleportation wire
	// model).
	gen := fidelity.Werner(fidelity.GeneratePerfectInit(d.Params))
	arrived := gen.AfterBallistic(d.Params, d.DistanceCells)

	proto := purify.DEJMPS{Params: d.Params}
	rounds, final, pairs, ok := purify.RoundsToReach(proto, arrived.Twirl(), target, maxRounds)
	res := BallisticResult{
		ArrivalError:  arrived.Error(),
		Rounds:        rounds,
		FinalError:    final.Error(),
		PairsConsumed: pairs,
		Feasible:      ok,
	}
	if !ok {
		return res, nil
	}

	// Latency: the halves move in parallel (D/2 each), then the
	// purification tree runs level by level; each level is one
	// purification round with classical exchange over the channel.
	move := d.Params.BallisticTime(d.DistanceCells / 2)
	res.SetupLatency = move + time.Duration(rounds)*d.Params.PurifyRoundTime(d.DistanceCells)

	// Control: each consumed pair shuttles two halves of D/2 cells.
	plan, err := PlanMove(0, d.DistanceCells/2)
	if err != nil {
		return BallisticResult{}, err
	}
	res.ControlSignals = int(pairs+0.5) * 2 * plan.Signals()
	return res, nil
}

// Comparison holds the Section 4.6 methodology comparison at one
// distance.
type Comparison struct {
	DistanceCells int
	// BallisticLatency and TeleportLatency are the one-way data movement
	// times of Eq 2 and Eq 5.
	BallisticLatency time.Duration
	TeleportLatency  time.Duration
	// BallisticPairError and ChainedPairError are the delivered EPR pair
	// errors (before endpoint purification) under the two distribution
	// methodologies across the same physical span.
	BallisticPairError float64
	ChainedPairError   float64
}

// CompareMethodologies evaluates both methodologies over the same physical span,
// chaining teleports every hopCells for the teleportation methodology.
func CompareMethodologies(p phys.Params, distanceCells, hopCells int) (Comparison, error) {
	if distanceCells < 1 || hopCells < 1 {
		return Comparison{}, fmt.Errorf("channel: distances must be >= 1 (got %d, %d)", distanceCells, hopCells)
	}
	c := Comparison{
		DistanceCells:    distanceCells,
		BallisticLatency: p.BallisticTime(distanceCells),
		TeleportLatency:  p.TeleportTime(distanceCells),
	}
	gen := fidelity.Werner(fidelity.GeneratePerfectInit(p))
	c.BallisticPairError = gen.AfterBallistic(p, distanceCells).Error()

	hops := distanceCells / hopCells
	if hops < 1 {
		hops = 1
	}
	wire := gen.AfterBallistic(p, hopCells)
	state := wire
	for i := 0; i < hops; i++ {
		state = fidelity.TeleportBell(p, state, wire)
	}
	c.ChainedPairError = state.Error()
	return c, nil
}

// Package qnet is the public API of this repository's reproduction of
// "Interconnection Networks for Scalable Quantum Computers" (Isailovic,
// Patel, Whitney, Kubiatowicz — ISCA 2006, arXiv:quant-ph/0604048).
//
// The API is split across four packages:
//
//   - qnet (this package): the device model and the building blocks —
//     ion-trap parameters (Tables 1-2), channel fidelity equations
//     (Eqs 1-6), Bell-diagonal states, purification protocols and the
//     Figure 14 queue purifier, error-correction sizing, mesh grids,
//     workload programs, and the structured error types shared by the
//     whole tree.
//   - qnet/channel: the analytical reliable-channel model — EPR
//     distribution over chained teleporters, the five purification
//     placement policies (Figs 9-12), the ballistic methodology and
//     its comparison with teleportation (Figs 2, 4-5), and channel
//     planning (latency, bandwidth, error rate, resources).
//   - qnet/simulate: the event-driven mesh-interconnect simulator
//     (Figs 15-16) behind a Machine/Session abstraction with
//     functional options, context-aware runs, a concurrent
//     parameter-sweep engine, and a content-addressed result cache
//     that makes repeated sweeps incremental.
//   - qnet/stats: seed-ensemble statistics over simulation results —
//     mean, standard deviation, extrema and confidence intervals per
//     metric, with Group folding a sweep's seed dimension into
//     per-configuration ensembles.
//
// Quickstart:
//
//	p := qnet.IonTrap2006()
//	grid, _ := qnet.NewGrid(8, 8)
//	m, err := simulate.New(grid, simulate.MobileQubit,
//		simulate.WithResources(16, 16, 8),
//		simulate.WithPurifyDepth(3))
//	res, err := m.Run(ctx, qnet.QFT(grid.Tiles()))
//
// See docs/ARCHITECTURE.md for the package-to-paper map and the
// runnable Example functions in each package for working idioms.  The
// legacy flat facade that once lived in the repository root (package
// repro) was deprecated for one release and has been removed.
package qnet

import (
	"io"

	"repro/internal/ecc"
	"repro/internal/fidelity"
	"repro/internal/isa"
	"repro/internal/mesh"
	"repro/internal/phys"
	"repro/internal/purify"
	"repro/internal/workload"
)

// Params bundles the ion-trap device constants of the paper's Tables 1
// and 2.
type Params = phys.Params

// IonTrap2006 returns the paper's baseline device parameters.
func IonTrap2006() Params { return phys.IonTrap2006() }

// ThresholdError is the fault-tolerance threshold 7.5e-5 the paper
// imposes on data-qubit error.
const ThresholdError = fidelity.ThresholdError

// Bell is a Bell-diagonal two-qubit state; its A coefficient is the
// pair's fidelity.
type Bell = fidelity.Bell

// Werner lifts a scalar fidelity into the Bell-diagonal representation.
func Werner(f float64) Bell { return fidelity.Werner(f) }

// Ballistic applies the paper's Eq 1: fidelity after moving a qubit over
// the given number of ion-trap cells.
func Ballistic(p Params, old float64, cells int) float64 {
	return fidelity.Ballistic(p, old, cells)
}

// Teleport applies the paper's Eq 3: fidelity after one teleportation
// using an EPR pair of the given fidelity.
func Teleport(p Params, old, epr float64) float64 { return fidelity.Teleport(p, old, epr) }

// Generate applies the paper's Eq 4: fidelity of a freshly generated EPR
// pair.
func Generate(p Params, fzero float64) float64 { return fidelity.Generate(p, fzero) }

// CornerToCornerError is the ballistic error of a corner-to-corner move
// on an n×n-cell grid — the paper's argument that raw movement cannot
// scale.
func CornerToCornerError(p Params, n int) float64 { return fidelity.CornerToCornerError(p, n) }

// Protocol is a two-to-one entanglement purification protocol.
type Protocol = purify.Protocol

// DEJMPS is the Deutsch et al. purification protocol (the paper's
// choice).
type DEJMPS = purify.DEJMPS

// BBPSSW is the Bennett et al. purification protocol.
type BBPSSW = purify.BBPSSW

// RoundResult is the state and success probability after one
// purification round.
type RoundResult = purify.RoundResult

// Rounds iterates a purification protocol round by round.
func Rounds(proto Protocol, initial Bell, maxRounds int) []RoundResult {
	return purify.Rounds(proto, initial, maxRounds)
}

// ConvergenceRounds returns the rounds a protocol needs to get within
// slack of its fixed-point error.
func ConvergenceRounds(proto Protocol, initial Bell, slack float64, maxRounds int) int {
	return purify.ConvergenceRounds(proto, initial, slack, maxRounds)
}

// TreePairs is the number of input pairs a purification tree of the
// given depth consumes per output pair (2^rounds).
func TreePairs(rounds int) int { return purify.TreePairs(rounds) }

// QueuePurifier is the robust queue-based purifier of Figure 14.
type QueuePurifier = purify.QueuePurifier

// NewQueuePurifier builds a queue purifier of the given tree depth.
func NewQueuePurifier(proto Protocol, depth int) (*QueuePurifier, error) {
	return purify.NewQueuePurifier(proto, depth)
}

// Code is a concatenated quantum error-correcting code.
type Code = ecc.Code

// Steane returns the concatenated Steane [[7,1,3]] code at the given
// level; level 2 (49 physical qubits) is the paper's choice.
func Steane(level int) (Code, error) { return ecc.Steane(level) }

// Grid is a rectangular tile mesh.
type Grid = mesh.Grid

// NewGrid builds a mesh of the given dimensions.
func NewGrid(w, h int) (Grid, error) { return mesh.NewGrid(w, h) }

// Program is a logical instruction stream of two-qubit operations.
type Program = workload.Program

// Op is one two-logical-qubit operation.
type Op = workload.Op

// QFT returns the Quantum Fourier Transform communication pattern
// (all-to-all) on n logical qubits.
func QFT(n int) Program { return workload.QFT(n) }

// ModMult returns the Modular Multiplication pattern (bipartite) between
// two sets of n logical qubits.
func ModMult(n int) Program { return workload.ModMult(n) }

// ModExp returns the Modular Exponentiation pattern (alternating
// all-to-all and bipartite) over two sets of n qubits.
func ModExp(n, steps int) Program { return workload.ModExp(n, steps) }

// ParseProgram reads an instruction-stream file (the internal/isa
// format: "qubits N", "op A B", plus qft/mm macros) into a Program.
func ParseProgram(r io.Reader) (Program, error) { return isa.Parse(r) }

// FormatProgram renders a Program back to the instruction-stream
// format accepted by ParseProgram.
func FormatProgram(prog Program) string { return isa.Format(prog) }

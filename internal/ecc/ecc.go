// Package ecc models the error-correction sizing assumptions of the
// paper: logical qubits are encoded with a concatenated Steane [[7,1,3]]
// code, so a level-L logical qubit comprises 7^L physical qubits.  The
// paper transports level-2 logical qubits (49 physical qubits) and cites
// the local fault-tolerance threshold of Svore et al. (2005): data
// fidelity must stay above 1 - 7.5e-5.
package ecc

import "fmt"

// SteaneBlock is the number of physical qubits in one Steane [[7,1,3]]
// code block.
const SteaneBlock = 7

// Code describes a concatenated quantum error-correcting code.
type Code struct {
	// Name identifies the base code.
	Name string
	// BlockSize is the number of physical qubits per logical qubit at
	// one level of encoding.
	BlockSize int
	// Level is the concatenation depth (level 0 = bare physical qubit).
	Level int
}

// Steane returns the concatenated Steane code at the given level.
// Level 2 — the paper's choice — encodes one logical qubit in 49
// physical qubits.
func Steane(level int) (Code, error) {
	if level < 0 {
		return Code{}, fmt.Errorf("ecc: concatenation level must be >= 0, got %d", level)
	}
	if level > 10 {
		return Code{}, fmt.Errorf("ecc: concatenation level %d is unphysically deep", level)
	}
	return Code{Name: "Steane[[7,1,3]]", BlockSize: SteaneBlock, Level: level}, nil
}

// PhysicalQubits returns the number of physical qubits that encode one
// logical qubit: BlockSize^Level.
func (c Code) PhysicalQubits() int {
	n := 1
	for i := 0; i < c.Level; i++ {
		n *= c.BlockSize
	}
	return n
}

// PairsPerLogicalTeleport returns the number of high-fidelity EPR pairs a
// single logical-qubit teleportation consumes: one pair per physical
// qubit.
func (c Code) PairsPerLogicalTeleport() int { return c.PhysicalQubits() }

// RawPairsPerLogicalTeleport returns the number of endpoint-delivered EPR
// pairs per logical teleportation when each high-fidelity pair is
// distilled from a purification tree of the given depth: 2^depth pairs
// per physical qubit.  With the paper's level-2 code and depth-3 queue
// purifiers this is 2^3 × 49 = 392, the expected pair count for the
// longest communication path in Section 5.3.
func (c Code) RawPairsPerLogicalTeleport(purifyDepth int) int {
	if purifyDepth < 0 {
		purifyDepth = 0
	}
	return (1 << uint(purifyDepth)) * c.PhysicalQubits()
}

// String renders the code.
func (c Code) String() string {
	return fmt.Sprintf("%s level %d (%d physical qubits/logical)", c.Name, c.Level, c.PhysicalQubits())
}

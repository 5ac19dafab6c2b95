package ecc

import (
	"testing"
	"testing/quick"
)

func TestSteaneLevels(t *testing.T) {
	cases := []struct {
		level, qubits int
	}{{0, 1}, {1, 7}, {2, 49}, {3, 343}}
	for _, c := range cases {
		code, err := Steane(c.level)
		if err != nil {
			t.Fatalf("Steane(%d): %v", c.level, err)
		}
		if got := code.PhysicalQubits(); got != c.qubits {
			t.Errorf("level %d: %d physical qubits, want %d", c.level, got, c.qubits)
		}
	}
}

func TestSteaneRejectsBadLevels(t *testing.T) {
	if _, err := Steane(-1); err == nil {
		t.Error("negative level should be rejected")
	}
	if _, err := Steane(11); err == nil {
		t.Error("absurd level should be rejected")
	}
}

func TestPairsPerLogicalCommunication(t *testing.T) {
	// Paper §5.3: "the expected number of EPR pairs required for the
	// longest communication path is 392 (= pairs for endpoint
	// purification × qubits per logical qubit = 2^3 × 49)".
	code, err := Steane(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := code.RawPairsPerLogicalTeleport(3); got != 392 {
		t.Errorf("raw pairs per level-2 logical teleport with depth-3 purifiers = %d, want 392", got)
	}
	if got := code.PairsPerLogicalTeleport(); got != 49 {
		t.Errorf("high-fidelity pairs per logical teleport = %d, want 49", got)
	}
}

func TestRawPairsNegativeDepthClamps(t *testing.T) {
	code, _ := Steane(1)
	if got := code.RawPairsPerLogicalTeleport(-2); got != 7 {
		t.Errorf("negative depth should clamp to 0 rounds: got %d, want 7", got)
	}
}

func TestString(t *testing.T) {
	code, _ := Steane(2)
	want := "Steane[[7,1,3]] level 2 (49 physical qubits/logical)"
	if got := code.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// Property: physical qubit count is multiplicative in level.
func TestConcatenationProperty(t *testing.T) {
	f := func(lRaw uint8) bool {
		l := int(lRaw) % 9
		c1, err1 := Steane(l)
		c2, err2 := Steane(l + 1)
		if err1 != nil || err2 != nil {
			return false
		}
		return c2.PhysicalQubits() == 7*c1.PhysicalQubits()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package classical

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mesh"
	"repro/internal/phys"
)

func TestPauliComposeTable(t *testing.T) {
	cases := []struct {
		a, b, want Pauli
	}{
		{PauliI, PauliI, PauliI},
		{PauliI, PauliX, PauliX},
		{PauliX, PauliX, PauliI},
		{PauliX, PauliZ, PauliY},
		{PauliZ, PauliX, PauliY},
		{PauliY, PauliY, PauliI},
		{PauliY, PauliX, PauliZ},
		{PauliY, PauliZ, PauliX},
	}
	for _, c := range cases {
		if got := c.a.Compose(c.b); got != c.want {
			t.Errorf("%v∘%v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestPauliStrings(t *testing.T) {
	want := map[string]Pauli{"I": PauliI, "X": PauliX, "Z": PauliZ, "Y": PauliY}
	for s, p := range want {
		if p.String() != s {
			t.Errorf("%+v.String() = %q, want %q", p, p.String(), s)
		}
	}
}

func TestPauliBits(t *testing.T) {
	x, z := PauliY.Bits()
	if x != 1 || z != 1 {
		t.Errorf("Y bits = (%d,%d), want (1,1)", x, z)
	}
	x, z = PauliI.Bits()
	if x != 0 || z != 0 {
		t.Errorf("I bits = (%d,%d), want (0,0)", x, z)
	}
}

func TestFrameAccumulation(t *testing.T) {
	var f Frame
	if !f.Correction().Identity() || f.CorrectionOps() != 0 {
		t.Error("fresh frame should be identity")
	}
	f.Absorb(PauliX)
	f.Absorb(PauliZ)
	if f.Correction() != PauliY || f.Hops() != 2 {
		t.Errorf("frame = %v after %d hops, want Y after 2", f.Correction(), f.Hops())
	}
	if f.CorrectionOps() != 2 {
		t.Errorf("Y needs 2 correction ops, got %d", f.CorrectionOps())
	}
	f.Absorb(PauliY)
	if !f.Correction().Identity() {
		t.Errorf("Y∘Y should cancel, got %v", f.Correction())
	}
	if f.CorrectionOps() != 0 {
		t.Errorf("identity needs 0 ops, got %d", f.CorrectionOps())
	}
}

// Property: absorbing any multiset of corrections is order-independent.
func TestFrameOrderIndependenceProperty(t *testing.T) {
	paulis := []Pauli{PauliI, PauliX, PauliZ, PauliY}
	f := func(seq []uint8, swapAt uint8) bool {
		if len(seq) < 2 {
			return true
		}
		var a, b Frame
		for _, s := range seq {
			a.Absorb(paulis[int(s)%4])
		}
		i := int(swapAt) % (len(seq) - 1)
		seq[i], seq[i+1] = seq[i+1], seq[i]
		for _, s := range seq {
			b.Absorb(paulis[int(s)%4])
		}
		return a.Correction() == b.Correction() && a.Hops() == b.Hops()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPacketString(t *testing.T) {
	p := Packet{
		ID:          PacketID{Gen: mesh.Link{From: mesh.Coord{X: 1, Y: 2}, Dir: mesh.East}, Seq: 7},
		Dest:        mesh.Coord{X: 3, Y: 4},
		PartnerDest: mesh.Coord{X: 0, Y: 0},
	}
	p.Frame.Absorb(PauliX)
	s := p.String()
	for _, sub := range []string{"(1,2)#7", "(3,4)", "(0,0)", "X", "1 hops"} {
		if !contains(s, sub) {
			t.Errorf("packet string %q missing %q", s, sub)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(phys.IonTrap2006(), 0); err == nil {
		t.Error("zero hop cells should fail")
	}
}

func TestNetworkLatency(t *testing.T) {
	n, err := NewNetwork(phys.IonTrap2006(), 600)
	if err != nil {
		t.Fatal(err)
	}
	// 10 hops × 600 cells × 1ns/cell = 6µs.
	if got, want := n.Latency(10), 6*time.Microsecond; got != want {
		t.Errorf("latency(10 hops) = %v, want %v", got, want)
	}
	if n.Latency(-1) != 0 {
		t.Error("negative hops should clamp to 0")
	}
}

func TestNetworkAccounting(t *testing.T) {
	n, _ := NewNetwork(phys.IonTrap2006(), 600)
	n.RecordTeleports(2)
	n.RecordTeleports(3)
	n.RecordPurifies(3)
	n.RecordPurifies(0)
	messages, bits, teleports, purifies := n.Stats()
	if messages != 8 || teleports != 5 || purifies != 3 {
		t.Errorf("messages=%d teleports=%d purifies=%d", messages, teleports, purifies)
	}
	if bits != 16 {
		t.Errorf("bits = %d, want 16 (2 per op)", bits)
	}
}

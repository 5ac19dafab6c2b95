package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

func TestNewRejectsInvalidProgram(t *testing.T) {
	bad := workload.Program{Name: "bad", Qubits: 2, Ops: []workload.Op{{A: 0, B: 0}}}
	if _, err := New(bad); err == nil {
		t.Error("invalid program should be rejected")
	}
}

func TestSchedulerRunsQFTInPaperWavefronts(t *testing.T) {
	// With the QFT stream, the initially ready set is exactly {0-1}; after
	// completing it, {0-2} becomes ready; then {0-3, 1-2} together, etc.
	s, err := New(workload.QFT(6))
	if err != nil {
		t.Fatal(err)
	}
	var waveSizes []int
	for !s.Done() {
		var batch []int
		for {
			id, _, ok := s.Issue()
			if !ok {
				break
			}
			batch = append(batch, id)
		}
		if len(batch) == 0 {
			t.Fatal("deadlock")
		}
		waveSizes = append(waveSizes, len(batch))
		for _, id := range batch {
			if err := s.Complete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := []int{1, 1, 2, 2, 3, 2, 2, 1, 1}
	if len(waveSizes) != len(want) {
		t.Fatalf("wavefront sizes %v, want %v", waveSizes, want)
	}
	for i := range want {
		if waveSizes[i] != want[i] {
			t.Fatalf("wavefront sizes %v, want %v", waveSizes, want)
		}
	}
}

func TestIssueReturnsFalseWhenBlocked(t *testing.T) {
	s, _ := New(workload.QFT(4))
	id, _, ok := s.Issue()
	if !ok {
		t.Fatal("first op should be ready")
	}
	// Everything else depends on op 0 directly or transitively... issue
	// drained the ready list, so the next Issue must fail until Complete.
	if _, _, ok := s.Issue(); ok {
		t.Error("no second op should be ready before the first completes")
	}
	if err := s.Complete(id); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Issue(); !ok {
		t.Error("completing op 0 should unblock op 1")
	}
}

func TestCompleteValidation(t *testing.T) {
	s, _ := New(workload.QFT(4))
	if err := s.Complete(0); err == nil {
		t.Error("completing an unissued op should fail")
	}
	if err := s.Complete(-1); err == nil {
		t.Error("negative id should fail")
	}
	if err := s.Complete(100); err == nil {
		t.Error("out-of-range id should fail")
	}
	id, _, _ := s.Issue()
	if err := s.Complete(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Complete(id); err == nil {
		t.Error("double completion should fail")
	}
}

// depth returns the dependency-graph depth of the program: the length of
// the longest chain of ops that must execute sequentially.  With
// unlimited communication resources and unit-time ops, execution takes
// exactly depth steps.
func depth(prog workload.Program) int {
	level := make([]int, prog.Qubits)
	depth := 0
	for _, op := range prog.Ops {
		l := level[op.A]
		if level[op.B] > l {
			l = level[op.B]
		}
		l++
		level[op.A], level[op.B] = l, l
		if l > depth {
			depth = l
		}
	}
	return depth
}

func TestDepthQFT(t *testing.T) {
	// The QFT wavefront order has 2n-3 levels.
	for _, n := range []int{2, 4, 8, 16} {
		if got, want := depth(workload.QFT(n)), 2*n-3; got != want {
			t.Errorf("depth(QFT(%d)) = %d, want %d", n, got, want)
		}
	}
}

func TestDepthModMult(t *testing.T) {
	// MM rounds serialize per qubit: depth = n.
	for _, n := range []int{1, 4, 8} {
		if got := depth(workload.ModMult(n)); got != n {
			t.Errorf("depth(MM(%d)) = %d, want %d", n, got, n)
		}
	}
}

// Property: any program generated by the workload package executes to
// completion (no deadlock) and completes exactly len(Ops) operations,
// and per-qubit ops complete in program order.
func TestSchedulerLivenessProperty(t *testing.T) {
	f := func(nRaw, kind uint8) bool {
		n := int(nRaw)%12 + 2
		var prog workload.Program
		switch kind % 3 {
		case 0:
			prog = workload.QFT(n)
		case 1:
			prog = workload.ModMult(n)
		default:
			prog = workload.ModExp(n, 2)
		}
		s, err := New(prog)
		if err != nil {
			return false
		}
		completionOrder := make([]int, 0, len(prog.Ops))
		for !s.Done() {
			id, _, ok := s.Issue()
			if !ok {
				return false // deadlock
			}
			if err := s.Complete(id); err != nil {
				return false
			}
			completionOrder = append(completionOrder, id)
		}
		// Per-qubit program order must hold in the completion order.
		pos := make(map[int]int, len(completionOrder))
		for i, id := range completionOrder {
			pos[id] = i
		}
		last := make(map[int]int) // qubit -> last op position seen
		for k, op := range prog.Ops {
			for _, q := range []int{op.A, op.B} {
				if p, ok := last[q]; ok && pos[k] < p {
					return false
				}
				last[q] = pos[k]
			}
		}
		return s.Completed() == len(prog.Ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

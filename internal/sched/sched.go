// Package sched implements the top-level classical instruction scheduler
// of Section 3.2/5: it takes a logical instruction stream of
// two-logical-qubit operations and issues as many as possible in
// parallel while maintaining program-order dependencies per logical
// qubit.  The router-level concerns (paths, EPR distribution) live in
// packages mesh and netsim; this package only decides what may run when.
package sched

import (
	"fmt"

	"repro/internal/workload"
)

// Scheduler tracks the dependency state of a program.  An op becomes
// ready when the previous op touching each of its qubits has completed.
type Scheduler struct {
	prog workload.Program
	// deps[k] counts uncompleted predecessor ops of op k (0, 1 or 2).
	deps []int
	// succ[k] holds the ops directly unblocked by op k's completion, in
	// the order they were found, -1 marking an empty slot.  Each of
	// op k's two qubits has at most one next op, so two slots hold them
	// all, and the table is one allocation however long the program.
	succ [][2]int

	ready     []int // ready, unissued op indices in program order
	state     []opState
	completed int
}

type opState uint8

const (
	statePending opState = iota
	stateReady
	stateIssued
	stateDone
)

// New builds a scheduler for the program.
func New(prog workload.Program) (*Scheduler, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{
		prog:  prog,
		deps:  make([]int, len(prog.Ops)),
		succ:  make([][2]int, len(prog.Ops)),
		state: make([]opState, len(prog.Ops)),
	}
	for k := range s.succ {
		s.succ[k] = [2]int{-1, -1}
	}
	last := make([]int, prog.Qubits)
	for i := range last {
		last[i] = -1
	}
	for k, op := range prog.Ops {
		for _, q := range [2]int{op.A, op.B} {
			if p := last[q]; p >= 0 {
				slot := 0
				if s.succ[p][0] >= 0 {
					slot = 1
				}
				s.succ[p][slot] = k
				s.deps[k]++
			}
			last[q] = k
		}
	}
	for k := range prog.Ops {
		if s.deps[k] == 0 {
			s.state[k] = stateReady
			s.ready = append(s.ready, k)
		}
	}
	return s, nil
}

// Len returns the total number of ops.
func (s *Scheduler) Len() int { return len(s.prog.Ops) }

// Completed returns the number of completed ops.
func (s *Scheduler) Completed() int { return s.completed }

// Done reports whether every op has completed.
func (s *Scheduler) Done() bool { return s.completed == len(s.prog.Ops) }

// Issue pops the oldest ready op (program order), marking it in flight.
// ok is false when nothing is ready.
func (s *Scheduler) Issue() (id int, op workload.Op, ok bool) {
	if len(s.ready) == 0 {
		return 0, workload.Op{}, false
	}
	id = s.ready[0]
	copy(s.ready, s.ready[1:])
	s.ready = s.ready[:len(s.ready)-1]
	s.state[id] = stateIssued
	return id, s.prog.Ops[id], true
}

// Complete marks an issued op as finished, unblocking its dependents.
func (s *Scheduler) Complete(id int) error {
	if id < 0 || id >= len(s.prog.Ops) {
		return fmt.Errorf("sched: op id %d out of range", id)
	}
	if s.state[id] != stateIssued {
		return fmt.Errorf("sched: op %d (%v) completed in state %d, want issued", id, s.prog.Ops[id], s.state[id])
	}
	s.state[id] = stateDone
	s.completed++
	for _, next := range s.succ[id] {
		if next < 0 {
			break
		}
		s.deps[next]--
		if s.deps[next] == 0 {
			s.state[next] = stateReady
			s.ready = append(s.ready, next)
		}
	}
	return nil
}

// Package trace defines the dynamic instruction trace representation shared
// by the workload generators, the functional analyzers, the idealized IW
// simulations, and the detailed cycle-level simulator.
//
// A trace is the sequence of *committed* (useful) dynamic instructions of a
// program run. Wrong-path instructions are not recorded: in the paper's
// machine, oldest-first issue means mis-speculated instructions never
// inhibit useful ones, so miss-events act purely as throttles on the flow of
// useful instructions (Fig. 3 of the paper).
package trace

import (
	"fmt"

	"fomodel/internal/isa"
)

// Instruction is one dynamic instruction in a trace.
//
// Register dependences are expressed with architectural register numbers;
// Src1/Src2 are isa.RegNone when absent. PC and Addr are byte addresses used
// by the instruction and data caches; Taken records the branch outcome used
// by predictor simulation.
//
// The field order keeps the struct at 24 bytes: Taken fills the byte after
// Class that alignment would otherwise pad, so every in-memory trace is a
// quarter smaller than with Taken last. The binary format writes each
// field explicitly and does not depend on the layout.
type Instruction struct {
	// PC is the instruction's byte address (used by the I-cache and the
	// branch predictor index).
	PC uint64
	// Addr is the effective memory address for loads and stores.
	Addr uint64
	// Class is the operation class.
	Class isa.Class
	// Taken is the branch outcome (branches only).
	Taken bool
	// Dest is the destination architectural register, or isa.RegNone.
	Dest int16
	// Src1 and Src2 are source registers, or isa.RegNone.
	Src1 int16
	Src2 int16
}

// HasDest reports whether the instruction writes a register.
func (in *Instruction) HasDest() bool { return in.Dest >= 0 }

// IsMem reports whether the instruction accesses data memory.
func (in *Instruction) IsMem() bool {
	return in.Class == isa.Load || in.Class == isa.Store
}

// Trace is an in-memory dynamic instruction trace.
type Trace struct {
	// Name identifies the workload that produced the trace (e.g. "gzip").
	Name string
	// ContentID, when non-empty, identifies the trace's *content*: the
	// deterministic generation recipe (workload name, instruction count,
	// seed, generator version) that fully determines every instruction.
	// Two traces with equal ContentIDs are bit-identical even across
	// processes and restarts, so caches and the artifact store may key
	// derived products (classification preps, IW fits, analyses)
	// by it instead of by pointer identity. Traces of unknown provenance
	// (hand-built, or read from an external file) leave it empty and are
	// keyed by identity instead.
	ContentID string
	// Instrs is the committed dynamic instruction sequence.
	Instrs []Instruction
}

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return len(t.Instrs) }

// Validate checks structural invariants: classes are defined, register
// numbers are within the architectural namespace, memory instructions carry
// addresses, and only branches are marked taken.
//
// The loop is a branch-free-as-possible fast path (Validate runs over
// every instruction of every decoded trace); the error construction
// lives in validateInstr so the per-instruction check stays inlinable.
func (t *Trace) Validate() error {
	for i := range t.Instrs {
		in := &t.Instrs[i]
		if !in.Class.Valid() || !regOK(in.Dest) || !regOK(in.Src1) || !regOK(in.Src2) ||
			(in.Taken && in.Class != isa.Branch) {
			return t.validateInstr(i)
		}
	}
	return nil
}

// validateInstr reports which invariant instruction i violates.
func (t *Trace) validateInstr(i int) error {
	in := &t.Instrs[i]
	if !in.Class.Valid() {
		return fmt.Errorf("trace %q: instr %d has invalid class %d", t.Name, i, in.Class)
	}
	if err := checkReg(in.Dest); err != nil {
		return fmt.Errorf("trace %q: instr %d dest: %v", t.Name, i, err)
	}
	if err := checkReg(in.Src1); err != nil {
		return fmt.Errorf("trace %q: instr %d src1: %v", t.Name, i, err)
	}
	if err := checkReg(in.Src2); err != nil {
		return fmt.Errorf("trace %q: instr %d src2: %v", t.Name, i, err)
	}
	return fmt.Errorf("trace %q: instr %d is taken but not a branch", t.Name, i)
}

func regOK(r int16) bool {
	return r == isa.RegNone || (r >= 0 && int(r) < isa.NumArchRegs)
}

func checkReg(r int16) error {
	if r == isa.RegNone {
		return nil
	}
	if r < 0 || int(r) >= isa.NumArchRegs {
		return fmt.Errorf("register %d out of range", r)
	}
	return nil
}

// Mix summarizes the instruction class composition of the trace as
// fractions that sum to 1 (for a non-empty trace).
func (t *Trace) Mix() [isa.NumClasses]float64 {
	var counts [isa.NumClasses]int
	for i := range t.Instrs {
		counts[t.Instrs[i].Class]++
	}
	var mix [isa.NumClasses]float64
	if len(t.Instrs) == 0 {
		return mix
	}
	n := float64(len(t.Instrs))
	for c := range counts {
		mix[c] = float64(counts[c]) / n
	}
	return mix
}

// AverageLatency returns the mean execution latency of the trace under the
// given latency table. This is the parameter L of the paper's Little's-law
// adjustment (Table 1, last column) when load latency reflects the average
// observed load time; callers that want short-miss effects folded in (as the
// paper does) should use stats.EffectiveAverageLatency instead.
func (t *Trace) AverageLatency(lat isa.LatencyTable) float64 {
	if len(t.Instrs) == 0 {
		return 0
	}
	var sum int64
	for i := range t.Instrs {
		sum += int64(lat.Latency(t.Instrs[i].Class))
	}
	return float64(sum) / float64(len(t.Instrs))
}

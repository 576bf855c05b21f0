package trace

import "fomodel/internal/isa"

// Producer links one instruction to the trace indices of the instructions
// that produce its source operands: Src1/Src2 hold the index of the last
// earlier writer of the corresponding source register, or -1 when the
// operand has no in-trace producer (no register, or the register was last
// written before the trace began).
//
// The links are a pure function of program order and the register fields.
// The timing engines that hold a window of instructions in flight — the
// simulator's cycle-stepping scan and the reference oracles — follow
// them; the program-order passes read a register finish table instead.
type Producer struct {
	Src1, Src2 int32
}

// ComputeProducers derives the producer links of t in one program-order
// pass. The result has len(t.Instrs) entries and is safe to share between
// concurrent read-only consumers.
func ComputeProducers(t *Trace) []Producer {
	prod := make([]Producer, len(t.Instrs))
	var lastWriter [isa.NumArchRegs]int32
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	for i := range t.Instrs {
		in := &t.Instrs[i]
		p := &prod[i]
		p.Src1, p.Src2 = -1, -1
		if in.Src1 >= 0 {
			p.Src1 = lastWriter[in.Src1]
		}
		if in.Src2 >= 0 {
			p.Src2 = lastWriter[in.Src2]
		}
		if in.Dest >= 0 {
			lastWriter[in.Dest] = int32(i)
		}
	}
	return prod
}

package trace

import (
	"math"
	"reflect"
	"testing"

	"fomodel/internal/isa"
)

func validTrace() *Trace {
	return &Trace{
		Name: "t",
		Instrs: []Instruction{
			{PC: 0x1000, Class: isa.ALU, Dest: 1, Src1: isa.RegNone, Src2: isa.RegNone},
			{PC: 0x1004, Class: isa.Load, Addr: 0x8000, Dest: 2, Src1: 1, Src2: isa.RegNone},
			{PC: 0x1008, Class: isa.Store, Addr: 0x8010, Dest: isa.RegNone, Src1: 2, Src2: 1},
			{PC: 0x100c, Class: isa.Branch, Dest: isa.RegNone, Src1: 2, Src2: isa.RegNone, Taken: true},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := validTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestValidateRejectsBadClass(t *testing.T) {
	tr := validTrace()
	tr.Instrs[0].Class = isa.Class(99)
	if err := tr.Validate(); err == nil {
		t.Fatal("invalid class accepted")
	}
}

func TestValidateRejectsBadRegister(t *testing.T) {
	for _, mutate := range []func(*Instruction){
		func(in *Instruction) { in.Dest = isa.NumArchRegs },
		func(in *Instruction) { in.Src1 = -2 },
		func(in *Instruction) { in.Src2 = 1000 },
	} {
		tr := validTrace()
		mutate(&tr.Instrs[0])
		if err := tr.Validate(); err == nil {
			t.Fatal("out-of-range register accepted")
		}
	}
}

func TestValidateRejectsTakenNonBranch(t *testing.T) {
	tr := validTrace()
	tr.Instrs[0].Taken = true
	if err := tr.Validate(); err == nil {
		t.Fatal("taken ALU accepted")
	}
}

func TestMix(t *testing.T) {
	tr := validTrace()
	mix := tr.Mix()
	var total float64
	for _, f := range mix {
		total += f
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("mix sums to %v", total)
	}
	if mix[isa.ALU] != 0.25 || mix[isa.Branch] != 0.25 {
		t.Fatalf("unexpected mix %v", mix)
	}
}

func TestMixEmpty(t *testing.T) {
	tr := &Trace{Name: "empty"}
	mix := tr.Mix()
	for c, f := range mix {
		if f != 0 {
			t.Fatalf("empty trace has non-zero mix for class %d", c)
		}
	}
}

func TestAverageLatency(t *testing.T) {
	tr := validTrace()
	lat := isa.DefaultLatencies()
	// ALU 1 + Load 1 + Store 1 + Branch 1 → mean 1.
	if got := tr.AverageLatency(lat); got != 1 {
		t.Fatalf("average latency %v, want 1", got)
	}
	tr.Instrs[0].Class = isa.Div // 12 + 1 + 1 + 1 → 3.75
	if got := tr.AverageLatency(lat); got != 3.75 {
		t.Fatalf("average latency %v, want 3.75", got)
	}
	if got := (&Trace{}).AverageLatency(lat); got != 0 {
		t.Fatalf("empty trace latency %v, want 0", got)
	}
}

func TestHelpers(t *testing.T) {
	tr := validTrace()
	if !tr.Instrs[0].HasDest() || tr.Instrs[2].HasDest() {
		t.Fatal("HasDest wrong")
	}
	if !tr.Instrs[1].IsMem() || !tr.Instrs[2].IsMem() || tr.Instrs[0].IsMem() {
		t.Fatal("IsMem wrong")
	}
	if tr.Len() != 4 {
		t.Fatalf("Len %d", tr.Len())
	}
}

// TestInstructionSize pins the in-memory layout at 24 bytes: every trace
// the daemon caches is n of these, so a field reordering that brings
// back the padding grows every cached trace by a third.
func TestInstructionSize(t *testing.T) {
	if got := reflect.TypeOf(Instruction{}).Size(); got != 24 {
		t.Fatalf("trace.Instruction is %d bytes, want 24", got)
	}
}

package iw

import (
	"math"
	"testing"

	"fomodel/internal/isa"
	"fomodel/internal/trace"
)

// chainTrace builds n instructions where each depends on its predecessor:
// ILP is exactly 1 at any window size.
func chainTrace(n int) *trace.Trace {
	t := &trace.Trace{Name: "chain"}
	for i := 0; i < n; i++ {
		reg := int16(i % isa.NumArchRegs)
		prev := int16((i - 1) % isa.NumArchRegs)
		in := trace.Instruction{PC: uint64(i * 4), Class: isa.ALU, Dest: reg, Src1: prev, Src2: isa.RegNone}
		if i == 0 {
			in.Src1 = isa.RegNone
		}
		t.Instrs = append(t.Instrs, in)
	}
	return t
}

// independentTrace builds n instructions with no dependences at all.
func independentTrace(n int) *trace.Trace {
	t := &trace.Trace{Name: "indep"}
	for i := 0; i < n; i++ {
		t.Instrs = append(t.Instrs, trace.Instruction{
			PC: uint64(i * 4), Class: isa.ALU,
			Dest: int16(i % isa.NumArchRegs), Src1: isa.RegNone, Src2: isa.RegNone,
		})
	}
	return t
}

func TestChainHasUnitILP(t *testing.T) {
	pts, err := Characteristic(chainTrace(2000), []int{2, 8, 32}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if math.Abs(p.I-1) > 0.01 {
			t.Fatalf("chain ILP at W=%d is %v, want 1", p.W, p.I)
		}
	}
}

func TestIndependentSaturatesAtWindow(t *testing.T) {
	pts, err := Characteristic(independentTrace(4000), []int{2, 8, 32}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if math.Abs(p.I-float64(p.W)) > 0.05*float64(p.W) {
			t.Fatalf("independent ILP at W=%d is %v, want ~W", p.W, p.I)
		}
	}
}

func TestIssueWidthCap(t *testing.T) {
	pts, err := Characteristic(independentTrace(4000), []int{32}, Options{IssueWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pts[0].I-4) > 0.05 {
		t.Fatalf("capped ILP %v, want ~4", pts[0].I)
	}
}

func TestLatencyScalesChain(t *testing.T) {
	lat := isa.DefaultLatencies()
	lat[isa.ALU] = 3
	pts, err := Characteristic(chainTrace(2000), []int{16}, Options{Latencies: &lat})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pts[0].I-1.0/3) > 0.01 {
		t.Fatalf("3-cycle chain ILP %v, want ~1/3", pts[0].I)
	}
}

func TestCharacteristicErrors(t *testing.T) {
	if _, err := Characteristic(&trace.Trace{Name: "empty"}, []int{4}, Options{}); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := Characteristic(chainTrace(10), nil, Options{}); err == nil {
		t.Fatal("no windows accepted")
	}
	if _, err := Characteristic(chainTrace(10), []int{0}, Options{}); err == nil {
		t.Fatal("zero window accepted")
	}
	bad := isa.LatencyTable{}
	if _, err := Characteristic(chainTrace(10), []int{4}, Options{Latencies: &bad}); err == nil {
		t.Fatal("invalid latency table accepted")
	}
	prod := trace.ComputeProducers(chainTrace(10))
	if _, err := Characteristic(chainTrace(10), []int{4}, Options{Producers: prod[:9]}); err == nil {
		t.Fatal("short producer links accepted")
	}
	for _, link := range []trace.Producer{{Src1: 5, Src2: -1}, {Src1: -1, Src2: 7}, {Src1: -2, Src2: -1}} {
		prod[5] = link
		if _, err := Characteristic(chainTrace(10), []int{4}, Options{Producers: prod}); err == nil {
			t.Fatalf("producer link %+v of instruction 5 accepted", link)
		}
	}
}

func TestFitRecoversSyntheticPowerLaw(t *testing.T) {
	pts := []Point{}
	for _, w := range []int{2, 4, 8, 16, 32} {
		pts = append(pts, Point{W: w, I: 1.4 * math.Pow(float64(w), 0.45)})
	}
	law, err := Fit(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(law.Alpha-1.4) > 0.01 || math.Abs(law.Beta-0.45) > 0.01 {
		t.Fatalf("fit %+v, want alpha=1.4 beta=0.45", law)
	}
	if law.R2 < 0.999 {
		t.Fatalf("R2 %v on exact power law", law.R2)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]Point{{W: 2, I: 1}}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := Fit([]Point{{W: 2, I: 1}, {W: 4, I: -1}}); err == nil {
		t.Fatal("negative issue rate accepted")
	}
}

func TestPowerLawEvalWindow(t *testing.T) {
	law := PowerLaw{Alpha: 1.5, Beta: 0.5}
	if got := law.Eval(16); math.Abs(got-6) > 1e-12 {
		t.Fatalf("Eval(16) = %v, want 6", got)
	}
	if got := law.Window(6); math.Abs(got-16) > 1e-9 {
		t.Fatalf("Window(6) = %v, want 16", got)
	}
	if law.Eval(0) != 0 || law.Window(0) != 0 {
		t.Fatal("degenerate inputs not zero")
	}
}

func TestInterpolateAt(t *testing.T) {
	pts := []Point{{W: 2, I: 2}, {W: 8, I: 4}, {W: 32, I: 8}}
	// Exact at measured points.
	for _, p := range pts {
		got, err := InterpolateAt(pts, float64(p.W))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-p.I) > 1e-9 {
			t.Fatalf("InterpolateAt(%d) = %v, want %v", p.W, got, p.I)
		}
	}
	// Geometric midpoint between (2,2) and (8,4): W=4 → I = 2·(4/2)^0.5 = 2.83.
	got, err := InterpolateAt(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2*math.Sqrt2) > 1e-9 {
		t.Fatalf("InterpolateAt(4) = %v, want %v", got, 2*math.Sqrt2)
	}
	// Between the last two points the local slope is 0.5 as well.
	got, err = InterpolateAt(pts, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4*math.Sqrt2) > 1e-9 {
		t.Fatalf("InterpolateAt(16) = %v", got)
	}
}

func TestInterpolateAtErrors(t *testing.T) {
	if _, err := InterpolateAt([]Point{{W: 2, I: 1}}, 4); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := InterpolateAt([]Point{{W: 2, I: 1}, {W: 4, I: 2}}, -1); err == nil {
		t.Fatal("negative window accepted")
	}
	if _, err := InterpolateAt([]Point{{W: 2, I: 1}, {W: 2, I: 2}}, 3); err == nil {
		t.Fatal("degenerate points accepted")
	}
}

func TestWindowSlotFreedAtIssue(t *testing.T) {
	// With a window of 2 and pairs (producer, consumer), the consumer
	// occupies a slot while waiting but the producer's slot frees at
	// issue, so the steady rate stays at ~1 rather than collapsing.
	tr := &trace.Trace{Name: "pairs"}
	for i := 0; i < 1000; i++ {
		prod := trace.Instruction{PC: uint64(i * 8), Class: isa.ALU,
			Dest: int16((2 * i) % isa.NumArchRegs), Src1: isa.RegNone, Src2: isa.RegNone}
		cons := trace.Instruction{PC: uint64(i*8 + 4), Class: isa.ALU,
			Dest: int16((2*i + 1) % isa.NumArchRegs), Src1: prod.Dest, Src2: isa.RegNone}
		tr.Instrs = append(tr.Instrs, prod, cons)
	}
	pts, err := Characteristic(tr, []int{2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].I < 0.95 {
		t.Fatalf("pair trace ILP %v at W=2, want ~1", pts[0].I)
	}
}

func TestDefaultWindows(t *testing.T) {
	ws := DefaultWindows()
	if len(ws) != 6 || ws[0] != 2 || ws[len(ws)-1] != 64 {
		t.Fatalf("default windows %v", ws)
	}
}

func TestWidthCapWithLatencies(t *testing.T) {
	// Independent 3-cycle multiplies, width cap 4: throughput is still 4
	// per cycle (fully pipelined units), demonstrating that the cap and
	// latency interact only through the window.
	tr := &trace.Trace{Name: "mulwide"}
	for i := 0; i < 4000; i++ {
		tr.Instrs = append(tr.Instrs, trace.Instruction{
			PC: uint64(i * 4), Class: isa.Mul,
			Dest: int16(i % isa.NumArchRegs), Src1: isa.RegNone, Src2: isa.RegNone,
		})
	}
	lat := isa.DefaultLatencies()
	pts, err := Characteristic(tr, []int{32}, Options{IssueWidth: 4, Latencies: &lat})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pts[0].I-4) > 0.1 {
		t.Fatalf("pipelined mul throughput %v, want ~4", pts[0].I)
	}
}

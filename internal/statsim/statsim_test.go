package statsim

import (
	"math"
	"testing"

	"fomodel/internal/cache"
	"fomodel/internal/isa"
	"fomodel/internal/stats"
	"fomodel/internal/trace"
	"fomodel/internal/uarch"
	"fomodel/internal/workload"
)

func TestMeasureErrors(t *testing.T) {
	cfg := uarch.DefaultConfig()
	if _, err := Measure(&trace.Trace{Name: "empty"}, cfg); err == nil {
		t.Fatal("empty trace accepted")
	}
	cfg.Width = 0
	tr, err := workload.Generate("gzip", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Measure(tr, cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestMeasureChainDependences(t *testing.T) {
	// A pure dependence chain: every instruction has src1 at distance 1.
	tr := &trace.Trace{Name: "chain"}
	for i := 0; i < 1000; i++ {
		in := trace.Instruction{
			PC: 0x40_0000, Class: isa.ALU,
			Dest: int16(i % isa.NumArchRegs), Src1: isa.RegNone, Src2: isa.RegNone,
		}
		if i > 0 {
			in.Src1 = int16((i - 1) % isa.NumArchRegs)
		}
		tr.Instrs = append(tr.Instrs, in)
	}
	p, err := Measure(tr, uarch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Src1Frac < 0.99 {
		t.Fatalf("src1 fraction %v, want ~1", p.Src1Frac)
	}
	if p.Src2Frac != 0 {
		t.Fatalf("src2 fraction %v, want 0", p.Src2Frac)
	}
	if p.DistHist[0] < 0.99 {
		t.Fatalf("distance-1 probability %v, want ~1", p.DistHist[0])
	}
}

func TestSynthesizePreservesStatistics(t *testing.T) {
	tr, err := workload.Generate("gzip", 40000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := uarch.DefaultConfig()
	p, err := Measure(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	synth, events, err := p.Synthesize(40000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := synth.Validate(); err != nil {
		t.Fatalf("synthetic trace invalid: %v", err)
	}
	if len(events) != synth.Len() {
		t.Fatal("event/instruction length mismatch")
	}
	// Class mix within 2 percentage points.
	mix := synth.Mix()
	for c := range mix {
		if math.Abs(mix[c]-p.Mix[c]) > 0.02 {
			t.Errorf("class %v mix %v, measured %v", isa.Class(c), mix[c], p.Mix[c])
		}
	}
	// Misprediction and long-miss rates within 20% relative.
	var branches, misp, mem, long int
	for i := range synth.Instrs {
		switch synth.Instrs[i].Class {
		case isa.Branch:
			branches++
			if events[i].Mispredict() {
				misp++
			}
		case isa.Load, isa.Store:
			mem++
			if events[i].DCache() == cache.LongMiss {
				long++
			}
		}
	}
	gotMisp := float64(misp) / float64(branches)
	if math.Abs(gotMisp-p.MispredictPerBranch) > 0.2*p.MispredictPerBranch+0.005 {
		t.Errorf("synthetic misprediction rate %v, measured %v", gotMisp, p.MispredictPerBranch)
	}
	// Stationary long rate of the two-state chain.
	wantLong := p.PLongAfterOther / (1 - p.PLongAfterLong + p.PLongAfterOther)
	gotLong := float64(long) / float64(mem)
	if math.Abs(gotLong-wantLong) > 0.3*wantLong+0.002 {
		t.Errorf("synthetic long-miss rate %v, stationary %v", gotLong, wantLong)
	}
}

func TestSynthesizeErrors(t *testing.T) {
	p := &Profile{Name: "x"}
	if _, _, err := p.Synthesize(100, 1); err == nil {
		t.Fatal("profile without histogram accepted")
	}
	p.DistHist = []float64{1}
	if _, _, err := p.Synthesize(0, 1); err == nil {
		t.Fatal("zero length accepted")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	tr, err := workload.Generate("bzip", 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Measure(tr, uarch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, ae, err := p.Synthesize(5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, be, err := p.Synthesize(5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Instrs {
		if a.Instrs[i] != b.Instrs[i] || ae[i] != be[i] {
			t.Fatalf("synthesis not deterministic at %d", i)
		}
	}
}

func TestStatisticalSimulationAccuracy(t *testing.T) {
	// The headline claim: statistical simulation approximates the real
	// trace's detailed simulation. 25% is a loose bound for a 40k run on
	// one benchmark.
	tr, err := workload.Generate("gzip", 40000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := uarch.DefaultConfig()
	ref, err := uarch.Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss, p, err := Simulate(tr, cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "gzip" {
		t.Fatalf("profile name %q", p.Name)
	}
	errFrac := math.Abs(ss.CPI()-ref.CPI()) / ref.CPI()
	if errFrac > 0.25 {
		t.Fatalf("statistical simulation CPI %v vs reference %v (err %v)", ss.CPI(), ref.CPI(), errFrac)
	}
}

// TestStatisticalSimulationTLBMisses checks that statistical simulation
// charges data-TLB misses: on mcf with the default TLB, its miss count
// lands within ±50 % of full simulation's, and the measured rate is
// zero without a TLB.
func TestStatisticalSimulationTLBMisses(t *testing.T) {
	tr, err := workload.Generate("mcf", 50000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := uarch.DefaultConfig()
	tlb := cache.DefaultTLB()
	cfg.TLB = &tlb
	ref, err := uarch.Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss, p, err := Simulate(tr, cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	if ref.TLBMisses == 0 || p.TLBMissPerLongMiss <= 0 {
		t.Fatalf("full simulation %d TLB misses, measured rate per long miss %v: want both nonzero",
			ref.TLBMisses, p.TLBMissPerLongMiss)
	}
	t.Logf("TLB misses: statistical %d (CPI %.3f), full %d (CPI %.3f)", ss.TLBMisses, ss.CPI(), ref.TLBMisses, ref.CPI())
	if got, want := float64(ss.TLBMisses), float64(ref.TLBMisses); math.Abs(got-want) > 0.5*want {
		t.Fatalf("statistical simulation %v TLB misses, full simulation %v", got, want)
	}
	noTLB, err := Measure(tr, uarch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if noTLB.TLBMissPerLongMiss != 0 || noTLB.TLBMissPerOtherAccess != 0 {
		t.Fatalf("TLB miss rates %v, %v without a TLB", noTLB.TLBMissPerLongMiss, noTLB.TLBMissPerOtherAccess)
	}
}

// TestStatisticalSimulationTLBCost checks what the TLB misses cost, not
// just how many there are: on the four benchmarks whose TLB misses all
// fall on long-miss accesses, the CPI that adding the default TLB costs
// under statistical simulation lands within 2× of what it costs under
// full simulation. Drawing TLB misses independently of the long misses
// charged about a tenth of it, as they then rarely overlapped.
func TestStatisticalSimulationTLBCost(t *testing.T) {
	for _, bench := range []string{"mcf", "gap", "twolf", "vpr"} {
		tr, err := workload.Generate(bench, 50000, 1)
		if err != nil {
			t.Fatal(err)
		}
		base := uarch.DefaultConfig()
		withTLB := base
		tlb := cache.DefaultTLB()
		withTLB.TLB = &tlb
		cpi := func(cfg uarch.Config) (full, statistical float64) {
			ref, err := uarch.Simulate(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ss, _, err := Simulate(tr, cfg, 99)
			if err != nil {
				t.Fatal(err)
			}
			return ref.CPI(), ss.CPI()
		}
		full0, ss0 := cpi(base)
		full1, ss1 := cpi(withTLB)
		full, statistical := full1-full0, ss1-ss0
		t.Logf("%s: TLB ΔCPI statistical %.4f, full %.4f", bench, statistical, full)
		if full <= 0 || statistical < full/2 || statistical > 2*full {
			t.Errorf("%s: TLB ΔCPI statistical %.4f, full %.4f: want within 2×", bench, statistical, full)
		}
	}
}

func TestSimulateWithEventsValidation(t *testing.T) {
	tr := &trace.Trace{Name: "t", Instrs: []trace.Instruction{
		{PC: 1, Class: isa.ALU, Dest: 1, Src1: isa.RegNone, Src2: isa.RegNone},
	}}
	cfg := uarch.DefaultConfig()
	if _, err := uarch.SimulateWithEvents(tr, nil, cfg); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := uarch.SimulateWithEvents(tr, []stats.Event{stats.EventTLBMiss}, cfg); err == nil {
		t.Fatal("TLB-miss event without TLB accepted")
	}
	for _, bad := range []stats.Event{3, 3 << 2, 1 << 6, 1 << 7} {
		if _, err := uarch.SimulateWithEvents(tr, []stats.Event{bad}, cfg); err == nil {
			t.Fatalf("invalid event 0x%02x accepted", uint8(bad))
		}
	}
	r, err := uarch.SimulateWithEvents(tr, []stats.Event{0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions != 1 {
		t.Fatalf("instructions %d", r.Instructions)
	}
}

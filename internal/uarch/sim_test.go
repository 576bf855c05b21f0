package uarch

import (
	"math"
	"testing"

	"fomodel/internal/cache"
	"fomodel/internal/isa"
	"fomodel/internal/predictor"
	"fomodel/internal/stats"
	"fomodel/internal/trace"
	"fomodel/internal/workload"
)

// testConfig returns the baseline machine with all miss-events ideal and
// no warmup, for timing micro-tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.IdealICache = true
	cfg.IdealDCache = true
	cfg.IdealPredictor = true
	cfg.Warmup = false
	return cfg
}

// hotPC keeps micro-traces inside one I-cache line so fetch never misses
// even with a real I-cache.
const hotPC = 0x40_0000

func aluInstr(i int) trace.Instruction {
	return trace.Instruction{
		PC: hotPC, Class: isa.ALU,
		Dest: int16(i % isa.NumArchRegs), Src1: isa.RegNone, Src2: isa.RegNone,
	}
}

func independent(n int) *trace.Trace {
	tr := &trace.Trace{Name: "indep"}
	for i := 0; i < n; i++ {
		tr.Instrs = append(tr.Instrs, aluInstr(i))
	}
	return tr
}

func chain(n int) *trace.Trace {
	tr := &trace.Trace{Name: "chain"}
	for i := 0; i < n; i++ {
		in := aluInstr(i)
		if i > 0 {
			in.Src1 = int16((i - 1) % isa.NumArchRegs)
		}
		tr.Instrs = append(tr.Instrs, in)
	}
	return tr
}

func mustSim(t *testing.T, tr *trace.Trace, cfg Config) *Result {
	t.Helper()
	r, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestIdealIndependentReachesWidth(t *testing.T) {
	r := mustSim(t, independent(20000), testConfig())
	if ipc := r.IPC(); math.Abs(ipc-4) > 0.05 {
		t.Fatalf("ideal IPC %v, want ~4", ipc)
	}
}

func TestChainIPCIsOne(t *testing.T) {
	r := mustSim(t, chain(5000), testConfig())
	if ipc := r.IPC(); math.Abs(ipc-1) > 0.05 {
		t.Fatalf("chain IPC %v, want ~1", ipc)
	}
}

func TestWidthScalesThroughput(t *testing.T) {
	tr := independent(20000)
	cfg := testConfig()
	cfg.Width = 2
	r2 := mustSim(t, tr, cfg)
	cfg.Width = 8
	r8 := mustSim(t, tr, cfg)
	if math.Abs(r2.IPC()-2) > 0.05 {
		t.Fatalf("width-2 IPC %v", r2.IPC())
	}
	if math.Abs(r8.IPC()-8) > 0.2 {
		t.Fatalf("width-8 IPC %v", r8.IPC())
	}
}

func TestLatencyThrottlesChain(t *testing.T) {
	tr := &trace.Trace{Name: "mulchain"}
	for i := 0; i < 2000; i++ {
		in := trace.Instruction{PC: hotPC, Class: isa.Mul,
			Dest: int16(i % isa.NumArchRegs), Src1: isa.RegNone, Src2: isa.RegNone}
		if i > 0 {
			in.Src1 = int16((i - 1) % isa.NumArchRegs)
		}
		tr.Instrs = append(tr.Instrs, in)
	}
	r := mustSim(t, tr, testConfig())
	// Mul latency 3 → one instruction per 3 cycles.
	if ipc := r.IPC(); math.Abs(ipc-1.0/3) > 0.02 {
		t.Fatalf("mul chain IPC %v, want ~1/3", ipc)
	}
}

func TestMispredictPenalty(t *testing.T) {
	// Steady independent stream with isolated mispredicted branches:
	// branches with Taken=false at fresh PCs are mispredicted on first
	// sight (gshare counters start weakly taken). Space them far apart
	// and compare against an ideal-predictor run.
	mk := func() *trace.Trace {
		tr := &trace.Trace{Name: "br"}
		for i := 0; i < 20000; i++ {
			if i%1000 == 500 {
				tr.Instrs = append(tr.Instrs, trace.Instruction{
					PC: hotPC + uint64(i)%64*4, Class: isa.Branch,
					Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
					Taken: false,
				})
				continue
			}
			tr.Instrs = append(tr.Instrs, aluInstr(i))
		}
		return tr
	}
	cfg := testConfig()
	ideal := mustSim(t, mk(), cfg)
	cfg.IdealPredictor = false
	real := mustSim(t, mk(), cfg)
	if real.Mispredicts == 0 {
		t.Fatal("no mispredicts observed")
	}
	perMisp := float64(real.Cycles-ideal.Cycles) / float64(real.Mispredicts)
	// For an independent stream the drain and ramp are fast, so the
	// penalty is dominated by the front-end refill: ΔP .. ΔP + ~12.
	if perMisp < float64(cfg.FrontEndDepth) || perMisp > float64(cfg.FrontEndDepth)+12 {
		t.Fatalf("penalty per misprediction %v, want within [%d, %d]",
			perMisp, cfg.FrontEndDepth, cfg.FrontEndDepth+12)
	}
}

func TestICacheMissPenaltyIsMissDelay(t *testing.T) {
	// Instructions march through fresh code lines; with warmup the lines
	// are in L2, so every new 128-byte line (32 instructions) costs the
	// short miss delay.
	mk := func() *trace.Trace {
		tr := &trace.Trace{Name: "ic"}
		for i := 0; i < 32*300; i++ {
			in := aluInstr(i)
			in.PC = hotPC + uint64(i)*4
			tr.Instrs = append(tr.Instrs, in)
		}
		return tr
	}
	cfg := testConfig()
	ideal := mustSim(t, mk(), cfg)
	cfg.IdealICache = false
	cfg.Warmup = true
	real := mustSim(t, mk(), cfg)
	if real.ICacheShort == 0 {
		t.Fatal("no short I-cache misses observed")
	}
	perMiss := float64(real.Cycles-ideal.Cycles) / float64(real.ICacheShort+real.ICacheLong)
	// Paper §4.2: the penalty ≈ the miss delay (8): the stall is partly
	// hidden by front-end buffering, so allow [0.5·ΔI, 1.3·ΔI].
	delay := float64(cfg.Hierarchy.ShortMissLatency)
	if perMiss < 0.5*delay || perMiss > 1.3*delay {
		t.Fatalf("penalty per I-miss %v, want ≈%v", perMiss, delay)
	}
}

func TestICachePenaltyIndependentOfDepth(t *testing.T) {
	mk := func() *trace.Trace {
		tr := &trace.Trace{Name: "ic2"}
		for i := 0; i < 32*200; i++ {
			in := aluInstr(i)
			in.PC = hotPC + uint64(i)*4
			tr.Instrs = append(tr.Instrs, in)
		}
		return tr
	}
	penalty := func(depth int) float64 {
		cfg := testConfig()
		cfg.FrontEndDepth = depth
		ideal := mustSim(t, mk(), cfg)
		cfg.IdealICache = false
		cfg.Warmup = true
		real := mustSim(t, mk(), cfg)
		return float64(real.Cycles-ideal.Cycles) / float64(real.ICacheShort+real.ICacheLong)
	}
	p5, p9 := penalty(5), penalty(9)
	if math.Abs(p5-p9) > 1.0 {
		t.Fatalf("I-cache penalty depends on depth: %v at 5 vs %v at 9", p5, p9)
	}
}

func TestLongDMissBlocksRetirement(t *testing.T) {
	// One cold load at the front of a long independent stream: the ROB
	// fills and the whole stream waits out the memory latency.
	mk := func(cold bool) *trace.Trace {
		tr := &trace.Trace{Name: "d"}
		for i := 0; i < 4000; i++ {
			in := aluInstr(i)
			if cold && i == 100 {
				in.Class = isa.Load
				in.Addr = 0x4000_0000
			}
			tr.Instrs = append(tr.Instrs, in)
		}
		return tr
	}
	cfg := testConfig()
	ideal := mustSim(t, mk(false), cfg)
	cfg.IdealDCache = false
	real := mustSim(t, mk(true), cfg)
	if real.DCacheLong != 1 {
		t.Fatalf("long misses %d, want 1", real.DCacheLong)
	}
	penalty := float64(real.Cycles - ideal.Cycles)
	// ≈ ΔD − rob_fill: the ROB keeps dispatching behind the load.
	delta := float64(cfg.Hierarchy.LongMissLatency)
	robFill := float64(cfg.ROBSize / cfg.Width)
	if penalty < delta-robFill-10 || penalty > delta+10 {
		t.Fatalf("long-miss penalty %v, want within [%v, %v]", penalty, delta-robFill-10, delta+10)
	}
}

func TestOverlappingLongMisses(t *testing.T) {
	// Two independent cold loads four instructions apart cost barely
	// more than one.
	mk := func(misses int) *trace.Trace {
		tr := &trace.Trace{Name: "d2"}
		placed := 0
		for i := 0; i < 4000; i++ {
			in := aluInstr(i)
			if i >= 100 && i%4 == 0 && placed < misses {
				in.Class = isa.Load
				in.Addr = 0x4000_0000 + uint64(placed)*128
				placed++
			}
			tr.Instrs = append(tr.Instrs, in)
		}
		return tr
	}
	cfg := testConfig()
	cfg.IdealDCache = false
	one := mustSim(t, mk(1), cfg)
	two := mustSim(t, mk(2), cfg)
	extra := float64(two.Cycles - one.Cycles)
	if extra > 20 {
		t.Fatalf("second overlapping miss cost %v extra cycles, want ~0", extra)
	}
}

func TestDistantLongMissesSerialize(t *testing.T) {
	// Two cold loads more than a ROB apart cost ~2× one.
	mk := func(second bool) *trace.Trace {
		tr := &trace.Trace{Name: "d3"}
		for i := 0; i < 4000; i++ {
			in := aluInstr(i)
			if i == 100 || (second && i == 100+1000) {
				in.Class = isa.Load
				in.Addr = 0x4000_0000 + uint64(i)*128
			}
			tr.Instrs = append(tr.Instrs, in)
		}
		return tr
	}
	cfg := testConfig()
	cfg.IdealDCache = false
	one := mustSim(t, mk(false), cfg)
	two := mustSim(t, mk(true), cfg)
	extra := float64(two.Cycles - one.Cycles)
	delta := float64(cfg.Hierarchy.LongMissLatency)
	robFill := float64(cfg.ROBSize / cfg.Width)
	if extra < delta-robFill-10 {
		t.Fatalf("distant second miss cost only %v extra cycles, want ≈%v", extra, delta-robFill)
	}
}

func TestSerializeLongMisses(t *testing.T) {
	mk := func() *trace.Trace {
		tr := &trace.Trace{Name: "ser"}
		for i := 0; i < 2000; i++ {
			in := aluInstr(i)
			if i == 100 || i == 104 {
				in.Class = isa.Load
				in.Addr = 0x4000_0000 + uint64(i)*128
			}
			tr.Instrs = append(tr.Instrs, in)
		}
		return tr
	}
	cfg := testConfig()
	cfg.IdealDCache = false
	cfg.SerializeLongMisses = true
	r := mustSim(t, mk(), cfg)
	if r.DCacheLong != 1 {
		t.Fatalf("serialized run charged %d long misses, want 1 (second demoted)", r.DCacheLong)
	}
}

// classificationConfigs varies every input of the functional pass once
// from the baseline: warmup, TLB, predictor spec and L1D geometry.
func classificationConfigs() []namedConfig {
	base := DefaultConfig()
	noWarm := base
	noWarm.Warmup = false
	withTLB := base
	tlb := cache.DefaultTLB()
	withTLB.TLB = &tlb
	bimodal := base
	bimodal.Predictor = &predictor.Spec{Kind: predictor.KindBimodal, IndexBits: 10}
	taken := base
	taken.Predictor = &predictor.Spec{Kind: predictor.KindAlwaysTaken}
	bigL1D := base
	bigL1D.Hierarchy.L1D.SizeBytes = 8 << 10
	return []namedConfig{
		{"default", base}, {"no-warmup", noWarm}, {"tlb", withTLB},
		{"bimodal-10", bimodal}, {"always-taken", taken}, {"l1d-8k", bigL1D},
	}
}

func TestClassificationMatchesStats(t *testing.T) {
	// The simulator's miss-event counts must equal the functional
	// analyzer's — the decoupling invariant the model evaluation relies
	// on — under every classification input.
	tr, err := workload.Generate("gzip", 60000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, nc := range classificationConfigs() {
		cfg := nc.cfg
		r, err := Simulate(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		scfg := stats.DefaultConfig()
		scfg.Hierarchy, scfg.PredictorBits, scfg.Predictor = cfg.Hierarchy, cfg.PredictorBits, cfg.Predictor
		scfg.TLB, scfg.Warmup = cfg.TLB, cfg.Warmup
		sum, err := stats.Analyze(tr, scfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Mispredicts != sum.Mispredicts {
			t.Errorf("%s: mispredicts: sim %d vs stats %d", nc.name, r.Mispredicts, sum.Mispredicts)
		}
		if got, want := r.ICacheShort+r.ICacheLong, sum.ICacheShort+sum.ICacheLong; got != want {
			t.Errorf("%s: I-cache misses: sim %d vs stats %d", nc.name, got, want)
		}
		if r.DCacheShort != sum.DCacheShort {
			t.Errorf("%s: short D-misses: sim %d vs stats %d", nc.name, r.DCacheShort, sum.DCacheShort)
		}
		if r.DCacheLong != sum.DCacheLong {
			t.Errorf("%s: long D-misses: sim %d vs stats %d", nc.name, r.DCacheLong, sum.DCacheLong)
		}
		if r.TLBMisses != sum.DTLBMisses {
			t.Errorf("%s: TLB misses: sim %d vs stats %d", nc.name, r.TLBMisses, sum.DTLBMisses)
		}
	}
}

func TestDeterminism(t *testing.T) {
	tr, err := workload.Generate("bzip", 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := mustSim(t, tr, DefaultConfig())
	b := mustSim(t, tr, DefaultConfig())
	if a.Cycles != b.Cycles || a.Mispredicts != b.Mispredicts {
		t.Fatal("simulation is not deterministic")
	}
}

func TestIssueHistogramSumsToCycles(t *testing.T) {
	r := mustSim(t, independent(5000), testConfig())
	var total int64
	var instrs int64
	for k, c := range r.IssueHistogram {
		total += c
		instrs += int64(k) * c
	}
	if total != r.Cycles {
		t.Fatalf("histogram cycles %d vs %d", total, r.Cycles)
	}
	if instrs != int64(r.Instructions) {
		t.Fatalf("histogram instructions %d vs %d", instrs, r.Instructions)
	}
}

func TestOccupancyBounds(t *testing.T) {
	r := mustSim(t, chain(3000), testConfig())
	cfg := testConfig()
	if r.AvgWindowOccupancy() > float64(cfg.WindowSize) {
		t.Fatalf("window occupancy %v exceeds capacity", r.AvgWindowOccupancy())
	}
	if r.AvgROBOccupancy() > float64(cfg.ROBSize) {
		t.Fatalf("ROB occupancy %v exceeds capacity", r.AvgROBOccupancy())
	}
	// The ROB holds everything in the window plus issued-but-unretired
	// instructions, so it is at least as full as the window.
	if r.AvgROBOccupancy() < r.AvgWindowOccupancy() {
		t.Fatalf("ROB occupancy %v below window occupancy %v", r.AvgROBOccupancy(), r.AvgWindowOccupancy())
	}
	// A blocked retirement (long miss stream) fills the ROB nearly
	// completely.
	tr := &trace.Trace{Name: "fill"}
	for i := 0; i < 4000; i++ {
		in := aluInstr(i)
		if i%500 == 100 {
			in.Class = isa.Load
			in.Addr = 0x4000_0000 + uint64(i)*128
		}
		tr.Instrs = append(tr.Instrs, in)
	}
	cfg2 := testConfig()
	cfg2.IdealDCache = false
	blocked := mustSim(t, tr, cfg2)
	if blocked.AvgROBOccupancy() < float64(cfg2.ROBSize)*0.7 {
		t.Fatalf("blocked-retirement ROB occupancy %v, want near %d", blocked.AvgROBOccupancy(), cfg2.ROBSize)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.FrontEndDepth = 0 },
		func(c *Config) { c.Width = 0 },
		func(c *Config) { c.WindowSize = 0 },
		func(c *Config) { c.ROBSize = c.WindowSize - 1 },
		func(c *Config) { c.Latencies[isa.ALU] = 0 },
		func(c *Config) { c.Hierarchy.L2.Assoc = 0 },
		func(c *Config) { c.PredictorBits = 0 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := Simulate(independent(10), Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := Simulate(&trace.Trace{Name: "e"}, DefaultConfig()); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestSmallerWindowLowersILP(t *testing.T) {
	// A mixed trace with medium dependences benefits from a bigger
	// window.
	tr, err := workload.Generate("bzip", 30000, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.WindowSize = 4
	cfg.ROBSize = 128
	small := mustSim(t, tr, cfg)
	cfg.WindowSize = 48
	big := mustSim(t, tr, cfg)
	if small.IPC() >= big.IPC() {
		t.Fatalf("window 4 IPC %v not below window 48 IPC %v", small.IPC(), big.IPC())
	}
}

func TestCPIAndIPCConsistency(t *testing.T) {
	r := mustSim(t, independent(1000), testConfig())
	if math.Abs(r.CPI()*r.IPC()-1) > 1e-9 {
		t.Fatalf("CPI %v and IPC %v are not reciprocal", r.CPI(), r.IPC())
	}
	var empty Result
	if empty.CPI() != 0 || empty.IPC() != 0 || empty.AvgWindowOccupancy() != 0 || empty.AvgROBOccupancy() != 0 {
		t.Fatal("zero result not zero-valued")
	}
}

func TestRetireWidthBoundsDrain(t *testing.T) {
	// One long miss at the head blocks retirement while ~ROB instructions
	// finish behind it; once the data returns, retirement drains them at
	// the retire width, so the tail costs ≈ ROB/width extra cycles.
	mk := func(width int) int64 {
		tr := &trace.Trace{Name: "drain"}
		for i := 0; i < 2000; i++ {
			in := aluInstr(i)
			if i == 0 {
				in.Class = isa.Load
				in.Addr = 0x4000_0000
			}
			tr.Instrs = append(tr.Instrs, in)
		}
		cfg := testConfig()
		cfg.Width = width
		cfg.IdealDCache = false
		r := mustSim(t, tr, cfg)
		return r.Cycles
	}
	wide := mk(8)
	narrow := mk(2)
	// The narrow machine takes at least the extra instructions/width
	// difference longer; crudely, cycles(2) > cycles(8).
	if narrow <= wide {
		t.Fatalf("retire width has no effect: %d vs %d cycles", narrow, wide)
	}
}

func TestIssueTraceRecording(t *testing.T) {
	cfg := testConfig()
	cfg.RecordIssueTrace = true
	r := mustSim(t, independent(2000), cfg)
	if int64(len(r.IssueTrace)) != r.Cycles {
		t.Fatalf("issue trace length %d vs %d cycles", len(r.IssueTrace), r.Cycles)
	}
	var sum int64
	for _, v := range r.IssueTrace {
		sum += int64(v)
	}
	if sum != int64(r.Instructions) {
		t.Fatalf("issue trace sums to %d, want %d", sum, r.Instructions)
	}
	cfg.RecordIssueTrace = false
	r2 := mustSim(t, independent(2000), cfg)
	if len(r2.IssueTrace) != 0 {
		t.Fatal("issue trace recorded without the flag")
	}
}

package stats

import (
	"math"
	"slices"
	"testing"

	"fomodel/internal/cache"
	"fomodel/internal/isa"
	"fomodel/internal/trace"
)

// loadAt returns a load instruction at a fixed hot PC.
func loadAt(addr uint64) trace.Instruction {
	return trace.Instruction{PC: 0x1000, Class: isa.Load, Addr: addr, Dest: 1, Src1: isa.RegNone, Src2: isa.RegNone}
}

func alu() trace.Instruction {
	return trace.Instruction{PC: 0x1004, Class: isa.ALU, Dest: 2, Src1: isa.RegNone, Src2: isa.RegNone}
}

func branch(taken bool) trace.Instruction {
	return trace.Instruction{PC: 0x1008, Class: isa.Branch, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, Taken: taken}
}

func TestAnalyzeErrors(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := Analyze(&trace.Trace{Name: "empty"}, cfg); err == nil {
		t.Fatal("empty trace accepted")
	}
	tr := &trace.Trace{Name: "x", Instrs: []trace.Instruction{alu()}}
	bad := cfg
	bad.ROBSize = 0
	if _, err := Analyze(tr, bad); err == nil {
		t.Fatal("zero ROB accepted")
	}
	bad = cfg
	bad.Latencies[isa.ALU] = 0
	if _, err := Analyze(tr, bad); err == nil {
		t.Fatal("invalid latencies accepted")
	}
	bad = cfg
	bad.Hierarchy.L1I.Assoc = 0
	if _, err := Analyze(tr, bad); err == nil {
		t.Fatal("invalid hierarchy accepted")
	}
	bad = cfg
	bad.PredictorBits = 0
	if _, err := Analyze(tr, bad); err == nil {
		t.Fatal("invalid predictor accepted")
	}
}

func TestBranchCounting(t *testing.T) {
	// A constantly taken branch: gshare starts weakly-taken, so it never
	// mispredicts here.
	tr := &trace.Trace{Name: "b"}
	for i := 0; i < 100; i++ {
		tr.Instrs = append(tr.Instrs, branch(true))
	}
	sum, err := Analyze(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Branches != 100 {
		t.Fatalf("branches %d", sum.Branches)
	}
	if sum.Mispredicts != 0 {
		t.Fatalf("mispredicts %d on constant branch", sum.Mispredicts)
	}
	if sum.MispredictRate() != 0 || sum.MispredictsPerInstr() != 0 {
		t.Fatal("rates non-zero")
	}
}

func TestDCacheClassification(t *testing.T) {
	tr := &trace.Trace{Name: "d"}
	// Two accesses to the same cold line: first is a long miss, second a
	// hit.
	tr.Instrs = append(tr.Instrs, loadAt(0x4000_0000), loadAt(0x4000_0008))
	sum, err := Analyze(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sum.DCacheLong != 1 || sum.DCacheShort != 0 {
		t.Fatalf("long=%d short=%d, want 1/0", sum.DCacheLong, sum.DCacheShort)
	}
}

func TestFLDMGroupingLeaderRule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBSize = 10
	tr := &trace.Trace{Name: "g"}
	// Long misses at instruction indices 0, 5, 9 (one group of 3: all
	// within 10 of the leader), then at 30 and 38 (group of 2), then 60
	// (isolated). Distinct cold lines 128 B apart.
	missIdx := map[int]bool{0: true, 5: true, 9: true, 30: true, 38: true, 60: true}
	line := uint64(0)
	for i := 0; i < 70; i++ {
		if missIdx[i] {
			tr.Instrs = append(tr.Instrs, loadAt(0x4000_0000+line*128))
			line++
		} else {
			tr.Instrs = append(tr.Instrs, alu())
		}
	}
	sum, err := Analyze(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.DCacheLong != 6 {
		t.Fatalf("long misses %d, want 6", sum.DCacheLong)
	}
	if sum.LongMissGroups[3] != 1 || sum.LongMissGroups[2] != 1 || sum.LongMissGroups[1] != 1 {
		t.Fatalf("groups %v, want one each of sizes 3, 2, 1", sum.LongMissGroups)
	}
	// f(3) = 3/6, f(2) = 2/6, f(1) = 1/6; Σ f(i)/i = 3/6 → 0.5.
	f := sum.FLDM()
	if math.Abs(f[3]-0.5) > 1e-12 || math.Abs(f[2]-1.0/3) > 1e-12 || math.Abs(f[1]-1.0/6) > 1e-12 {
		t.Fatalf("fLDM %v", f)
	}
	if math.Abs(sum.OverlapFactor()-0.5) > 1e-12 {
		t.Fatalf("overlap factor %v, want 0.5", sum.OverlapFactor())
	}
}

func TestFLDMLeaderNotChain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBSize = 10
	tr := &trace.Trace{Name: "chainvsleader"}
	// Misses at 0, 8, 16: 8 and 16 are 8 apart (within ROB of each
	// other) but 16 is beyond the leader (0) by more than 10 → the
	// leader rule yields groups {0,8} and {16}.
	missIdx := map[int]bool{0: true, 8: true, 16: true}
	line := uint64(0)
	for i := 0; i < 30; i++ {
		if missIdx[i] {
			tr.Instrs = append(tr.Instrs, loadAt(0x4000_0000+line*128))
			line++
		} else {
			tr.Instrs = append(tr.Instrs, alu())
		}
	}
	sum, err := Analyze(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.LongMissGroups[2] != 1 || sum.LongMissGroups[1] != 1 {
		t.Fatalf("groups %v, want {2:1, 1:1}", sum.LongMissGroups)
	}
}

func TestOverlapFactorNoMisses(t *testing.T) {
	tr := &trace.Trace{Name: "nomiss", Instrs: []trace.Instruction{alu(), alu()}}
	sum, err := Analyze(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sum.OverlapFactor() != 1 {
		t.Fatalf("overlap factor %v with no misses, want 1", sum.OverlapFactor())
	}
	if len(sum.FLDM()) != 0 {
		t.Fatal("fLDM non-empty with no misses")
	}
}

func TestAvgLatencyFoldsShortMisses(t *testing.T) {
	cfg := DefaultConfig()
	// Trace of one load that will short-miss: first warm the L2 with the
	// line, then evict it from L1 by conflicting lines.
	tr := &trace.Trace{Name: "lat"}
	addr := uint64(0x3_0000)
	tr.Instrs = append(tr.Instrs, loadAt(addr)) // long miss
	for i := uint64(1); i <= 4; i++ {
		tr.Instrs = append(tr.Instrs, loadAt(addr+i*1024)) // evict from L1 set
	}
	tr.Instrs = append(tr.Instrs, loadAt(addr)) // short miss now
	sum, err := Analyze(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.DCacheShort != 1 {
		t.Fatalf("short misses %d, want 1", sum.DCacheShort)
	}
	// 6 loads: 5 at latency 1 (long misses don't inflate L), 1 at 1+8.
	want := (5.0*1 + 9) / 6
	if math.Abs(sum.AvgLatency-want) > 1e-12 {
		t.Fatalf("avg latency %v, want %v", sum.AvgLatency, want)
	}
}

func TestWarmupRemovesICacheColdMisses(t *testing.T) {
	// A code footprint bigger than L1I but within L2: without warmup the
	// L2 cold misses are counted; with warmup only L1 capacity misses
	// remain.
	mk := func() *trace.Trace {
		tr := &trace.Trace{Name: "warm"}
		for rep := 0; rep < 4; rep++ {
			for pc := uint64(0); pc < 8192; pc += 4 {
				tr.Instrs = append(tr.Instrs, trace.Instruction{
					PC: 0x40_0000 + pc, Class: isa.ALU, Dest: 1,
					Src1: isa.RegNone, Src2: isa.RegNone,
				})
			}
		}
		return tr
	}
	cold, err := Analyze(mk(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Warmup = true
	warm, err := Analyze(mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.ICacheLong == 0 {
		t.Fatal("expected cold-start L2 instruction misses without warmup")
	}
	if warm.ICacheLong != 0 {
		t.Fatalf("warmup left %d L2 instruction misses", warm.ICacheLong)
	}
	if warm.ICacheShort == 0 {
		t.Fatal("expected L1 capacity misses to survive warmup")
	}
}

func TestSummaryRates(t *testing.T) {
	tr := &trace.Trace{Name: "r"}
	for i := 0; i < 10; i++ {
		tr.Instrs = append(tr.Instrs, alu())
	}
	sum, err := Analyze(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Instructions != 10 {
		t.Fatalf("instructions %d", sum.Instructions)
	}
	if sum.ICacheShortPerInstr() != 0 || sum.DCacheLongPerInstr() != 0 {
		t.Fatal("rates should be zero")
	}
	if sum.LongMisses() != 0 {
		t.Fatal("long misses should be zero")
	}
	if sum.Mix[isa.ALU] != 1 {
		t.Fatalf("mix %v", sum.Mix)
	}
}

func TestICacheLongPerInstr(t *testing.T) {
	tr := &trace.Trace{Name: "il"}
	// 256 instructions spread across 256 distinct L2-missing lines.
	for i := 0; i < 256; i++ {
		tr.Instrs = append(tr.Instrs, trace.Instruction{
			PC: 0x40_0000 + uint64(i)*128, Class: isa.ALU, Dest: 1,
			Src1: isa.RegNone, Src2: isa.RegNone,
		})
	}
	sum, err := Analyze(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sum.ICacheLong != 256 {
		t.Fatalf("ICacheLong %d, want 256", sum.ICacheLong)
	}
	if got := sum.ICacheLongPerInstr(); got != 1 {
		t.Fatalf("rate %v, want 1", got)
	}
}

func TestICacheMissGaps(t *testing.T) {
	tr := &trace.Trace{Name: "gaps"}
	// Misses at instruction 0 (cold line), 64 (new line), 65..95 same
	// line (hits): two misses, second at gap 64.
	for i := 0; i < 100; i++ {
		pc := uint64(0x40_0000)
		if i >= 64 {
			pc = 0x40_0000 + 128
		}
		tr.Instrs = append(tr.Instrs, trace.Instruction{
			PC: pc, Class: isa.ALU, Dest: 1, Src1: isa.RegNone, Src2: isa.RegNone,
		})
	}
	sum, err := Analyze(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.ICacheMissGaps) != 2 {
		t.Fatalf("recorded %d gaps, want 2", len(sum.ICacheMissGaps))
	}
	if sum.ICacheMissGaps[1] != 64 {
		t.Fatalf("second gap %d, want 64", sum.ICacheMissGaps[1])
	}
	if got := sum.IsolatedICacheFrac(32); got != 1 {
		t.Fatalf("isolated frac at 32: %v, want 1", got)
	}
	if got := sum.IsolatedICacheFrac(65); got != 0.5 {
		t.Fatalf("isolated frac at 65: %v, want 0.5 (sentinel first gap)", got)
	}
}

func TestIsolatedICacheFracNoMisses(t *testing.T) {
	tr := &trace.Trace{Name: "nomiss", Instrs: []trace.Instruction{alu()}}
	sum, err := Analyze(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// One compulsory miss is recorded (the first fetch); drop it by
	// checking the no-miss API contract directly.
	sum.ICacheMissGaps = nil
	if got := sum.IsolatedICacheFrac(100); got != 1 {
		t.Fatalf("no-miss isolated frac %v, want 1", got)
	}
}

func TestTLBStats(t *testing.T) {
	cfg := DefaultConfig()
	tlbCfg := cache.TLBConfig{Entries: 2, PageBytes: 4096, MissLatency: 50}
	cfg.TLB = &tlbCfg
	cfg.ROBSize = 10
	tr := &trace.Trace{Name: "tlb"}
	// Loads at pages 0,1,2,... each a TLB miss (2-entry TLB, no reuse):
	// misses at instruction indices 0,1,2 (one group of 3), then 50
	// (isolated).
	for i := 0; i < 60; i++ {
		switch {
		case i < 3:
			tr.Instrs = append(tr.Instrs, loadAt(uint64(i)*4096))
		case i == 50:
			tr.Instrs = append(tr.Instrs, loadAt(uint64(i)*4096))
		default:
			tr.Instrs = append(tr.Instrs, alu())
		}
	}
	sum, err := Analyze(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.DTLBMisses != 4 {
		t.Fatalf("TLB misses %d, want 4", sum.DTLBMisses)
	}
	if sum.TLBMissGroups[3] != 1 || sum.TLBMissGroups[1] != 1 {
		t.Fatalf("TLB groups %v, want {3:1, 1:1}", sum.TLBMissGroups)
	}
	// Σ f(i)/i = groups/misses = 2/4.
	if got := sum.TLBOverlapFactor(); got != 0.5 {
		t.Fatalf("TLB overlap %v, want 0.5", got)
	}
	if got := sum.TLBMissesPerInstr(); got != 4.0/60 {
		t.Fatalf("TLB rate %v", got)
	}
}

func TestTLBStatsDisabled(t *testing.T) {
	tr := &trace.Trace{Name: "notlb", Instrs: []trace.Instruction{loadAt(0x1000)}}
	sum, err := Analyze(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sum.DTLBMisses != 0 || sum.TLBOverlapFactor() != 1 {
		t.Fatal("TLB stats non-trivial without a TLB")
	}
}

func TestAnalyzeRejectsBadTLB(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TLB = &cache.TLBConfig{}
	tr := &trace.Trace{Name: "x", Instrs: []trace.Instruction{alu()}}
	if _, err := Analyze(tr, cfg); err == nil {
		t.Fatal("invalid TLB config accepted")
	}
}

func TestBranchBurstFactor(t *testing.T) {
	cfg := DefaultConfig()
	// Mispredicted branches: gshare counters start weakly-taken, so a
	// never-taken branch at a fresh PC mispredicts exactly once (its
	// first execution). Place four distinct such branches: two back to
	// back (a burst), two far apart (isolated).
	tr := &trace.Trace{Name: "bursts"}
	brAt := map[int]uint64{0: 0x9000, 4: 0x9100, 50: 0x9200, 90: 0x9300}
	for i := 0; i < 100; i++ {
		if pc, ok := brAt[i]; ok {
			tr.Instrs = append(tr.Instrs, trace.Instruction{
				PC: pc, Class: isa.Branch, Dest: isa.RegNone,
				Src1: isa.RegNone, Src2: isa.RegNone, Taken: false,
			})
		} else {
			tr.Instrs = append(tr.Instrs, alu())
		}
	}
	sum, err := Analyze(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Mispredicts != 4 {
		t.Fatalf("mispredicts %d, want 4", sum.Mispredicts)
	}
	if sum.MispredictGroups[2] != 1 || sum.MispredictGroups[1] != 2 {
		t.Fatalf("misprediction groups %v, want {2:1, 1:2}", sum.MispredictGroups)
	}
	// Σ f(i)/i = groups/mispredicts = 3/4.
	if got := sum.BranchBurstFactor(); got != 0.75 {
		t.Fatalf("burst factor %v, want 0.75", got)
	}
}

func TestBranchBurstFactorNoMispredicts(t *testing.T) {
	tr := &trace.Trace{Name: "none", Instrs: []trace.Instruction{alu(), alu()}}
	sum, err := Analyze(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sum.BranchBurstFactor() != 1 {
		t.Fatalf("burst factor %v with no mispredicts, want 1", sum.BranchBurstFactor())
	}
}

// TestClassifyMatchesAnalyze checks that Classify's events are the ones
// Analyze counts: the same totals and the same miss positions.
func TestClassifyMatchesAnalyze(t *testing.T) {
	tr := &trace.Trace{Name: "mixed"}
	for i := 0; i < 3000; i++ {
		switch i % 4 {
		case 0:
			tr.Instrs = append(tr.Instrs, loadAt(uint64(i)*4096))
		case 1:
			in := branch(i%3 == 0)
			in.PC = 0x2000 + uint64(i%64)*4
			tr.Instrs = append(tr.Instrs, in)
		default:
			tr.Instrs = append(tr.Instrs, alu())
		}
	}
	cfg := DefaultConfig()
	tlb := cache.DefaultTLB()
	cfg.TLB = &tlb
	events, err := Classify(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Analyze(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got Summary
	for i, ev := range events {
		switch ev.ICache() {
		case cache.ShortMiss:
			got.ICacheShort++
		case cache.LongMiss:
			got.ICacheLong++
		}
		if ev.Mispredict() {
			got.Mispredicts++
		}
		if ev.TLBMiss() {
			got.TLBMissPositions = append(got.TLBMissPositions, int32(i))
		}
		switch ev.DCache() {
		case cache.ShortMiss:
			got.DCacheShort++
		case cache.LongMiss:
			got.LongMissPositions = append(got.LongMissPositions, int32(i))
		}
	}
	if got.ICacheShort != sum.ICacheShort || got.ICacheLong != sum.ICacheLong ||
		got.Mispredicts != sum.Mispredicts || got.DCacheShort != sum.DCacheShort {
		t.Errorf("event counts %+v differ from the summary %+v", got, sum)
	}
	if !slices.Equal(got.LongMissPositions, sum.LongMissPositions) || len(got.LongMissPositions) == 0 {
		t.Errorf("long-miss positions differ: %d events vs %d in the summary",
			len(got.LongMissPositions), len(sum.LongMissPositions))
	}
	if !slices.Equal(got.TLBMissPositions, sum.TLBMissPositions) || len(got.TLBMissPositions) == 0 {
		t.Errorf("TLB-miss positions differ: %d events vs %d in the summary",
			len(got.TLBMissPositions), len(sum.TLBMissPositions))
	}
	if sum.Mispredicts == 0 {
		t.Error("the trace produced no mispredictions to compare")
	}

	cfg.TLB = &cache.TLBConfig{}
	if _, err := Classify(tr, cfg); err == nil {
		t.Error("invalid TLB config accepted")
	}
}

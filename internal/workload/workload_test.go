package workload

import (
	"testing"

	"fomodel/internal/isa"
	"fomodel/internal/rng"
)

func testProfile() Profile {
	p := baseProfile("test")
	return p
}

func mustGen(t *testing.T, p Profile, seed uint64) *Generator {
	t.Helper()
	g, err := NewGenerator(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateValidTrace(t *testing.T) {
	g := mustGen(t, testProfile(), 1)
	tr, err := g.Generate(20000)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() < 20000 {
		t.Fatalf("trace too short: %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	if tr.Name != "test" {
		t.Fatalf("trace name %q", tr.Name)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate("gzip", 5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("gzip", 5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Instrs {
		if a.Instrs[i] != b.Instrs[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, err := Generate("gzip", 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("gzip", 5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	same := 0
	for i := 0; i < n; i++ {
		if a.Instrs[i] == b.Instrs[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestBlocksEndWithBranch(t *testing.T) {
	g := mustGen(t, testProfile(), 3)
	tr, err := g.Generate(5000)
	if err != nil {
		t.Fatal(err)
	}
	// The last instruction of the trace must be a branch (generation
	// stops at a block boundary).
	if last := tr.Instrs[tr.Len()-1]; last.Class != isa.Branch {
		t.Fatalf("trace ends with %v, want branch", last.Class)
	}
	// PCs within a block advance by 4; after a not-taken branch the next
	// PC is the branch PC + 4.
	for i := 1; i < tr.Len(); i++ {
		prev, cur := &tr.Instrs[i-1], &tr.Instrs[i]
		if prev.Class != isa.Branch && cur.PC != prev.PC+4 {
			t.Fatalf("instr %d: PC %#x does not follow %#x within a block", i, cur.PC, prev.PC)
		}
		if prev.Class == isa.Branch && !prev.Taken && cur.PC != prev.PC+4 {
			t.Fatalf("instr %d: fall-through PC %#x does not follow branch at %#x", i, cur.PC, prev.PC)
		}
	}
}

func TestDependencesAreRecent(t *testing.T) {
	g := mustGen(t, testProfile(), 5)
	tr, err := g.Generate(20000)
	if err != nil {
		t.Fatal(err)
	}
	// Every source register must refer to a producer within the last
	// NumArchRegs destination writes (the round-robin guarantee), and
	// that producer must be the most recent writer of the register.
	last := make(map[int16]int)
	for i := range tr.Instrs {
		in := &tr.Instrs[i]
		for _, src := range []int16{in.Src1, in.Src2} {
			if src < 0 {
				continue
			}
			if _, ok := last[src]; !ok {
				t.Fatalf("instr %d reads register %d before any write", i, src)
			}
		}
		if in.Dest >= 0 {
			last[in.Dest] = i
		}
	}
}

func TestMemoryRegions(t *testing.T) {
	g := mustGen(t, testProfile(), 9)
	tr, err := g.Generate(50000)
	if err != nil {
		t.Fatal(err)
	}
	prof := testProfile()
	var hot, warm, cold int
	for i := range tr.Instrs {
		in := &tr.Instrs[i]
		if !in.IsMem() {
			continue
		}
		switch {
		case in.Addr >= coldBase:
			cold++
			if in.Addr >= coldBase+prof.DataColdSize {
				t.Fatalf("cold address %#x beyond region", in.Addr)
			}
		case in.Addr >= warmBase:
			warm++
			if in.Addr >= warmBase+prof.DataWarmSize {
				t.Fatalf("warm address %#x beyond region", in.Addr)
			}
		case in.Addr >= hotBase:
			hot++
			if in.Addr >= hotBase+prof.DataHotSize {
				t.Fatalf("hot address %#x beyond region", in.Addr)
			}
		default:
			t.Fatalf("data address %#x below hot base", in.Addr)
		}
	}
	total := hot + warm + cold
	if total == 0 {
		t.Fatal("no memory accesses generated")
	}
	hotFrac := float64(hot) / float64(total)
	if hotFrac < prof.DataHotFrac-0.05 {
		t.Fatalf("hot fraction %.3f, profile wants %.3f", hotFrac, prof.DataHotFrac)
	}
}

func TestBranchFractionTracksBlockLength(t *testing.T) {
	p := testProfile()
	p.BlockLenMean = 5
	g := mustGen(t, p, 11)
	tr, err := g.Generate(50000)
	if err != nil {
		t.Fatal(err)
	}
	mix := tr.Mix()
	want := 1.0 / (p.BlockLenMean + 1)
	if mix[isa.Branch] < want*0.7 || mix[isa.Branch] > want*1.4 {
		t.Fatalf("branch fraction %.3f, want ~%.3f", mix[isa.Branch], want)
	}
}

func TestCodeFootprint(t *testing.T) {
	g := mustGen(t, testProfile(), 13)
	fp := g.CodeFootprint()
	p := testProfile()
	// Roughly NumBlocks × (BlockLenMean+1) × 4 bytes.
	want := float64(p.NumBlocks) * (p.BlockLenMean + 1) * 4
	if float64(fp) < want*0.7 || float64(fp) > want*1.4 {
		t.Fatalf("footprint %d, want ~%.0f", fp, want)
	}
}

func TestGenerateRejectsBadLength(t *testing.T) {
	g := mustGen(t, testProfile(), 1)
	if _, err := g.Generate(0); err == nil {
		t.Fatal("zero length accepted")
	}
	if _, err := g.Generate(-5); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.BlockLenMean = 0 },
		func(p *Profile) { p.NumBlocks = 1 },
		func(p *Profile) { p.HotBlocks = 0 },
		func(p *Profile) { p.HotBlocks = p.NumBlocks + 1 },
		func(p *Profile) { p.HotJumpFrac = 1.5 },
		func(p *Profile) { p.EscapeFrac = -0.1 },
		func(p *Profile) { p.HardBranchFrac = 2 },
		func(p *Profile) { p.HardTakenProb = -1 },
		func(p *Profile) { p.EasyBiasLo = 0.2 },
		func(p *Profile) { p.EasyBiasLo, p.EasyBiasHi = 0.99, 0.95 },
		func(p *Profile) { p.EasyTakenFrac = 1.2 },
		func(p *Profile) { p.NoDepFrac = -0.5 },
		func(p *Profile) { p.DepShortFrac = 1.01 },
		func(p *Profile) { p.DepShortMean = 0.5 },
		func(p *Profile) { p.DepLongAlpha = 0 },
		func(p *Profile) { p.DepLongMax = 0 },
		func(p *Profile) { p.TwoSrcFrac = -0.2 },
		func(p *Profile) { p.DataHotFrac = 0.8; p.DataWarmFrac = 0.3 },
		func(p *Profile) { p.DataHotSize = 0 },
		func(p *Profile) { p.ColdBurstMean = 0 },
		func(p *Profile) { p.ColdStride = 0 },
		func(p *Profile) { p.Mix = [isa.NumClasses]float64{} },
	}
	for i, mutate := range cases {
		p := testProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
	}
}

// TestValidateBoundsSizes is the regression test for profiles that
// passed Validate and then crashed generation: a data size of 1<<63
// made the address draw panic, and a block count of 1<<32 asked for a
// ~170 GB block table. Sizes at the bounds must still generate.
func TestValidateBoundsSizes(t *testing.T) {
	rejected := map[string]func(*Profile){
		"hot size 1<<63":      func(p *Profile) { p.DataHotSize = 1 << 63 },
		"warm size 1<<63":     func(p *Profile) { p.DataWarmSize = 1 << 63 },
		"cold size max":       func(p *Profile) { p.DataColdSize = ^uint64(0) },
		"blocks 1<<32":        func(p *Profile) { p.NumBlocks = 1 << 32 },
		"blocks 1<<20+1":      func(p *Profile) { p.NumBlocks = 1<<20 + 1 },
		"block length 1e12":   func(p *Profile) { p.BlockLenMean = 1e12 },
		"data size just over": func(p *Profile) { p.DataHotSize = 1<<62 + 1 },
	}
	for name, mutate := range rejected {
		p := testProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	p := testProfile()
	p.DataHotSize, p.DataWarmSize, p.DataColdSize = 1<<62, 1<<62, 1<<62
	p.DataHotFrac, p.DataWarmFrac = 0.4, 0.4
	p.NumBlocks = 1 << 20
	p.BlockLenMean = 1 << 10
	tr, err := mustGen(t, p, 3).Generate(5000)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewGeneratorRejectsInvalidProfile(t *testing.T) {
	p := testProfile()
	p.Name = ""
	if _, err := NewGenerator(p, 1); err == nil {
		t.Fatal("invalid profile accepted by NewGenerator")
	}
}

func TestMultipleGenerateCallsContinue(t *testing.T) {
	g := mustGen(t, testProfile(), 17)
	a, err := g.Generate(3000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Generate(3000)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// The second segment must continue the walk, not restart it.
	identical := a.Len() == b.Len()
	if identical {
		for i := range a.Instrs {
			if a.Instrs[i] != b.Instrs[i] {
				identical = false
				break
			}
		}
	}
	if identical {
		t.Fatal("second Generate call replayed the first segment")
	}
}

func TestHardBranchSpacing(t *testing.T) {
	p := testProfile()
	p.HardBranchFrac = 0.25
	g := mustGen(t, p, 19)
	hard := 0
	for i := range g.blocks {
		if g.blocks[i].hard {
			hard++
			if g.blocks[i].takenProb != p.HardTakenProb {
				t.Fatal("hard block has wrong taken probability")
			}
		}
	}
	frac := float64(hard) / float64(len(g.blocks))
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("hard fraction %.3f, want ~0.25", frac)
	}
}

func TestNoSelfLoops(t *testing.T) {
	g := mustGen(t, testProfile(), 23)
	for i := range g.blocks {
		if g.blocks[i].takenTarget == i {
			t.Fatalf("block %d targets itself", i)
		}
	}
}

// TestDrawMixMatchesWeightedSum checks the generator's cumulative class
// draw against rng.WeightedSum on the same weights and stream, for
// mixes with zero weights, one class, and weights far apart in size.
func TestDrawMixMatchesWeightedSum(t *testing.T) {
	mixes := [][isa.NumClasses]float64{
		baseProfile("base").Mix,
		{isa.ALU: 1},
		{isa.Load: 0.3, isa.Store: 0.7},
		{isa.ALU: 1e-12, isa.Mul: 1e12, isa.Div: 3, isa.FPU: 1e-300, isa.Load: 0.5, isa.Store: 2},
	}
	for mi, mix := range mixes {
		p := testProfile()
		p.Mix = mix
		g := mustGen(t, p, uint64(mi+1))
		var weights []float64
		for _, c := range g.mixClasses {
			weights = append(weights, mix[c])
		}
		ref := rng.NewStream(uint64(mi+1), 0x01)
		total := rng.WeightSum(weights)
		for i := 0; i < 10000; i++ {
			if got, want := g.drawMix(), ref.WeightedSum(weights, total); got != want {
				t.Fatalf("mix %d draw %d: drawMix %d, WeightedSum %d", mi, i, got, want)
			}
		}
	}
}

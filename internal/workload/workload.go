// Package workload synthesizes SPECint2000-like dynamic instruction traces.
//
// The paper's first-order model consumes only statistical properties of a
// program trace: register dependence structure (which determines the
// power-law IW characteristic), instruction mix (which determines the
// average latency L), branch outcome entropy (which determines the gshare
// misprediction rate), and the memory working-set structure (which
// determines cache miss rates and the clustering of long misses). This
// package generates traces whose statistics are controllable through a
// per-benchmark Profile, replacing the proprietary SPEC binaries and
// SimpleScalar traces the authors used. See DESIGN.md §2 for the
// substitution argument.
//
// A workload is a static control-flow graph of basic blocks, walked
// dynamically with seeded randomness:
//
//   - Each basic block is a run of non-branch instructions terminated by a
//     conditional branch. Blocks are laid out sequentially in the code
//     address space, so the I-cache footprint equals the static code size
//     and hot-loop behaviour emerges from the block-targeting policy.
//   - Branch outcomes are drawn from per-block biases. "Easy" blocks are
//     strongly biased (predictable by gshare); "hard" blocks are
//     near-coin-flips (systematically mispredicted).
//   - Register dependences are created at controlled dynamic instruction
//     distances using a ring of the most recent producers. Destination
//     registers are allocated round-robin, so the last NumArchRegs
//     producers always occupy distinct registers and a sampled dependence
//     distance is never clobbered by an intervening write.
//   - Load/store addresses come from a three-tier working set: a hot
//     region that fits in L1, a warm region that fits in L2, and a cold
//     streaming region that always misses L2. Cold accesses arrive in
//     geometrically distributed bursts, which controls the f_LDM(i)
//     long-miss cluster distribution of the paper's equation (8).
package workload

import (
	"fmt"

	"fomodel/internal/isa"
	"fomodel/internal/rng"
	"fomodel/internal/trace"
)

// Profile parameterizes one synthetic benchmark. The zero value is not
// usable; start from one of the named profiles in profiles.go or fill in
// every field and call Validate.
type Profile struct {
	// Name identifies the benchmark (e.g. "gzip").
	Name string

	// Mix gives relative weights for non-branch instruction classes
	// (ALU, Mul, Div, FPU, Load, Store). The Branch entry is ignored:
	// branch density is set structurally by BlockLenMean.
	Mix [isa.NumClasses]float64

	// BlockLenMean is the mean number of non-branch instructions per basic
	// block; lengths are uniform in [BlockLenMean-2, BlockLenMean+2]
	// (clamped to >= 1). The low variance keeps the dynamic branch
	// fraction ≈ 1/(BlockLenMean+1) regardless of which blocks the walk
	// favours. Branch fraction of the trace ≈ 1/(BlockLenMean+1).
	BlockLenMean float64

	// NumBlocks is the static number of basic blocks; code footprint is
	// roughly NumBlocks × (BlockLenMean+1) × 4 bytes.
	NumBlocks int
	// HotBlocks is the size of the hot subset most taken branches target.
	HotBlocks int
	// HotJumpFrac is the probability a block's static taken-target lies in
	// the hot subset.
	HotJumpFrac float64
	// EscapeFrac is the per-execution probability that a taken branch
	// ignores its static target and jumps uniformly into the full code
	// footprint. Escapes model indirect calls and returns; together with
	// NumBlocks they set the I-cache pressure. Escaped targets are drawn
	// at run time, so they also perturb the global branch history the way
	// real call-intensive code does.
	EscapeFrac float64

	// HardBranchFrac is the fraction of static branches that are
	// near-random (taken with probability HardTakenProb). Hard blocks are
	// spaced deterministically (every round(1/HardBranchFrac)-th block) so
	// the hot set contains its proportional share: a random assignment
	// would let one or two lucky draws dominate the dynamic misprediction
	// rate of a small hot set.
	HardBranchFrac float64
	// HardTakenProb is the taken probability of hard branches; 0.5 gives
	// maximum entropy.
	HardTakenProb float64
	// EasyBiasLo/EasyBiasHi bound the bias magnitude of easy branches: an
	// easy block's taken probability is drawn from
	// [EasyBiasLo, EasyBiasHi] and then flipped to the not-taken side with
	// probability 1-EasyTakenFrac.
	EasyBiasLo, EasyBiasHi float64
	// EasyTakenFrac is the fraction of easy branches biased toward taken.
	// Real loop branches skew taken; values above 0.5 also keep aliased
	// gshare entries agreeing in large-footprint workloads.
	EasyTakenFrac float64

	// Dependence structure. Each source operand is, independently:
	// absent with probability NoDepFrac; otherwise its distance to its
	// producer is geometric with mean DepShortMean with probability
	// DepShortFrac, else Pareto with exponent DepLongAlpha capped at
	// DepLongMax.
	NoDepFrac    float64
	DepShortFrac float64
	DepShortMean float64
	DepLongAlpha float64
	DepLongMax   int
	// TwoSrcFrac is the probability an instruction has a second source.
	TwoSrcFrac float64

	// Memory working set. Fractions select the region of each access;
	// HotFrac + WarmFrac <= 1, the remainder is cold.
	DataHotSize  uint64
	DataWarmSize uint64
	DataColdSize uint64
	DataHotFrac  float64
	DataWarmFrac float64
	// ColdBurstMean is the mean run length of consecutive cold accesses;
	// larger values cluster long misses more tightly (mcf-like).
	ColdBurstMean float64
	// ColdStride is the byte stride of the cold streaming pointer; at
	// least a cache line to make every cold access a distinct line.
	ColdStride uint64
}

// Bounds on profile sizes, far above any built-in (the largest has
// 11000 blocks and a mean block length of 7). They keep a registered
// profile from crashing generation: a data size must fit the int64 the
// address draw takes, and the block count and mean block length size
// the generator's allocations.
const (
	maxBlockLenMean = 1 << 10
	maxNumBlocks    = 1 << 20
	maxDataSize     = 1 << 62
)

// Validate reports the first structural problem with the profile.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile has no name")
	case !(p.BlockLenMean >= 1 && p.BlockLenMean <= maxBlockLenMean):
		return fmt.Errorf("workload %s: BlockLenMean %v out of [1,%d]", p.Name, p.BlockLenMean, maxBlockLenMean)
	case p.NumBlocks < 2 || p.NumBlocks > maxNumBlocks:
		return fmt.Errorf("workload %s: NumBlocks %d out of [2,%d]", p.Name, p.NumBlocks, maxNumBlocks)
	case p.HotBlocks < 1 || p.HotBlocks > p.NumBlocks:
		return fmt.Errorf("workload %s: HotBlocks %d out of range [1,%d]", p.Name, p.HotBlocks, p.NumBlocks)
	case p.HotJumpFrac < 0 || p.HotJumpFrac > 1:
		return fmt.Errorf("workload %s: HotJumpFrac %v out of [0,1]", p.Name, p.HotJumpFrac)
	case p.EscapeFrac < 0 || p.EscapeFrac > 1:
		return fmt.Errorf("workload %s: EscapeFrac %v out of [0,1]", p.Name, p.EscapeFrac)
	case p.HardBranchFrac < 0 || p.HardBranchFrac > 1:
		return fmt.Errorf("workload %s: HardBranchFrac %v out of [0,1]", p.Name, p.HardBranchFrac)
	case p.HardTakenProb < 0 || p.HardTakenProb > 1:
		return fmt.Errorf("workload %s: HardTakenProb %v out of [0,1]", p.Name, p.HardTakenProb)
	case p.EasyBiasLo < 0.5 || p.EasyBiasHi > 1 || p.EasyBiasLo > p.EasyBiasHi:
		return fmt.Errorf("workload %s: easy bias range [%v,%v] invalid (need 0.5<=lo<=hi<=1)", p.Name, p.EasyBiasLo, p.EasyBiasHi)
	case p.EasyTakenFrac < 0 || p.EasyTakenFrac > 1:
		return fmt.Errorf("workload %s: EasyTakenFrac %v out of [0,1]", p.Name, p.EasyTakenFrac)
	case p.NoDepFrac < 0 || p.NoDepFrac > 1:
		return fmt.Errorf("workload %s: NoDepFrac %v out of [0,1]", p.Name, p.NoDepFrac)
	case p.DepShortFrac < 0 || p.DepShortFrac > 1:
		return fmt.Errorf("workload %s: DepShortFrac %v out of [0,1]", p.Name, p.DepShortFrac)
	case p.DepShortMean < 1:
		return fmt.Errorf("workload %s: DepShortMean %v < 1", p.Name, p.DepShortMean)
	case p.DepLongAlpha <= 0:
		return fmt.Errorf("workload %s: DepLongAlpha %v <= 0", p.Name, p.DepLongAlpha)
	case p.DepLongMax < 1:
		return fmt.Errorf("workload %s: DepLongMax %d < 1", p.Name, p.DepLongMax)
	case p.TwoSrcFrac < 0 || p.TwoSrcFrac > 1:
		return fmt.Errorf("workload %s: TwoSrcFrac %v out of [0,1]", p.Name, p.TwoSrcFrac)
	case p.DataHotFrac < 0 || p.DataWarmFrac < 0 || p.DataHotFrac+p.DataWarmFrac > 1:
		return fmt.Errorf("workload %s: data region fractions hot=%v warm=%v invalid", p.Name, p.DataHotFrac, p.DataWarmFrac)
	case p.DataHotSize == 0 || p.DataWarmSize == 0 || p.DataColdSize == 0:
		return fmt.Errorf("workload %s: data region sizes must be non-zero", p.Name)
	case p.DataHotSize > maxDataSize || p.DataWarmSize > maxDataSize || p.DataColdSize > maxDataSize:
		return fmt.Errorf("workload %s: data region sizes must be at most %d", p.Name, uint64(maxDataSize))
	case p.ColdBurstMean < 1:
		return fmt.Errorf("workload %s: ColdBurstMean %v < 1", p.Name, p.ColdBurstMean)
	case p.ColdStride == 0:
		return fmt.Errorf("workload %s: ColdStride must be non-zero", p.Name)
	}
	var mixTotal float64
	for c, w := range p.Mix {
		if w < 0 {
			return fmt.Errorf("workload %s: negative mix weight for %v", p.Name, isa.Class(c))
		}
		if isa.Class(c) != isa.Branch {
			mixTotal += w
		}
	}
	if mixTotal <= 0 {
		return fmt.Errorf("workload %s: instruction mix has no weight", p.Name)
	}
	return nil
}

// Memory layout of the synthetic address space. Regions are disjoint so a
// cache line is unambiguously hot, warm, or cold.
const (
	codeBase uint64 = 0x0040_0000
	hotBase  uint64 = 0x1000_0000
	warmBase uint64 = 0x2000_0000
	coldBase uint64 = 0x4000_0000
)

// block is one static basic block of the synthetic CFG.
type block struct {
	start       uint64  // PC of the first instruction
	bodyLen     int     // non-branch instructions before the terminal branch
	takenProb   float64 // probability the terminal branch is taken
	hard        bool
	takenTarget int // static successor when the branch is taken
}

// Generator produces dynamic instruction traces for one profile. A
// Generator is deterministic in (profile, seed); it is not safe for
// concurrent use.
type Generator struct {
	prof   Profile
	blocks []block

	// The four dynamic streams, held by value so the inlined draws read
	// and write their state in place.
	structRNG rng.PCG // CFG walk: targets, block choices
	depRNG    rng.PCG // dependence distances
	memRNG    rng.PCG // data addresses
	brRNG     rng.PCG // branch outcomes

	// producers is a ring of the dynamic indices of the most recent
	// NumArchRegs destination-writing instructions. producers[k] holds the
	// dynamic index of the producer whose destination register is k.
	producers   [isa.NumArchRegs]int64
	nextDestReg int16
	dynIdx      int64
	// writes counts the destination writes so far, and writesAt holds,
	// at dynamic index x mod writeRing, the count after instruction x for
	// the last writeRing instructions. Together they resolve a source
	// draw in O(1) (see sourceAt).
	writes       int64
	writesAt     [writeRing]int64
	coldPtr      uint64
	coldBurstRem int
	// mixCum[k] is the sum of the positive mix weights of mixClasses[0..k],
	// added left to right as rng.WeightedSum adds them, so a class draw
	// against it returns what WeightedSum returns.
	mixCum     []float64
	mixClasses []isa.Class

	// The per-instruction probabilities and the samplers for the
	// profile's fixed distributions, built once.
	noDep, depShortFrac, twoSrc rng.Chance
	depShort                    rng.GeometricSampler
	depLong                     rng.ParetoSampler
	coldBurst                   rng.GeometricSampler
}

// NewGenerator validates the profile, builds its static CFG, and returns a
// generator seeded with seed.
func NewGenerator(prof Profile, seed uint64) (*Generator, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		prof:         prof,
		structRNG:    *rng.NewStream(seed, 0x01),
		depRNG:       *rng.NewStream(seed, 0x02),
		memRNG:       *rng.NewStream(seed, 0x03),
		brRNG:        *rng.NewStream(seed, 0x04),
		noDep:        rng.NewChance(prof.NoDepFrac),
		depShortFrac: rng.NewChance(prof.DepShortFrac),
		twoSrc:       rng.NewChance(prof.TwoSrcFrac),
		depShort:     rng.NewGeometricSampler(prof.DepShortMean),
		depLong:      rng.NewParetoSampler(prof.DepLongAlpha, prof.DepLongMax),
		coldBurst:    rng.NewGeometricSampler(prof.ColdBurstMean),
	}
	for i := range g.producers {
		g.producers[i] = -1
	}
	// Static CFG construction draws from its own stream so that changing
	// the trace length never changes the program structure.
	cfgRNG := rng.NewStream(seed, 0x05)
	g.blocks = make([]block, prof.NumBlocks)
	hardStride := 0
	if prof.HardBranchFrac > 0 {
		hardStride = int(1/prof.HardBranchFrac + 0.5)
		if hardStride < 1 {
			hardStride = 1
		}
	}
	pc := codeBase
	for i := range g.blocks {
		b := &g.blocks[i]
		b.start = pc
		b.bodyLen = int(prof.BlockLenMean) - 2 + cfgRNG.Intn(5)
		if b.bodyLen < 1 {
			b.bodyLen = 1
		}
		pc += uint64(b.bodyLen+1) * 4
		if hardStride > 0 && i%hardStride == hardStride/2 {
			b.hard = true
			b.takenProb = prof.HardTakenProb
		} else {
			bias := prof.EasyBiasLo + cfgRNG.Float64()*(prof.EasyBiasHi-prof.EasyBiasLo)
			if !cfgRNG.Bool(prof.EasyTakenFrac) {
				bias = 1 - bias
			}
			b.takenProb = bias
		}
		// Static taken-target: usually a hot block (uniform over the hot
		// subset keeps the dynamic instruction mix stable), otherwise
		// anywhere in the footprint. Fixed targets make control flow —
		// and hence global branch history — repeat, which is what lets
		// gshare learn the biased branches.
		if cfgRNG.Bool(prof.HotJumpFrac) {
			b.takenTarget = cfgRNG.Intn(prof.HotBlocks)
		} else {
			b.takenTarget = cfgRNG.Intn(prof.NumBlocks)
		}
		// A strongly taken-biased self-loop would capture the walk for
		// long stretches and let one block dominate the dynamic
		// statistics; step past it instead.
		if b.takenTarget == i {
			b.takenTarget = (i + 1) % prof.NumBlocks
		}
	}
	var acc float64
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if c == isa.Branch || prof.Mix[c] <= 0 {
			continue
		}
		acc += prof.Mix[c]
		g.mixClasses = append(g.mixClasses, c)
		g.mixCum = append(g.mixCum, acc)
	}
	return g, nil
}

// CodeFootprint returns the static code size in bytes.
func (g *Generator) CodeFootprint() uint64 {
	last := g.blocks[len(g.blocks)-1]
	return last.start + uint64(last.bodyLen+1)*4 - codeBase
}

// Generate produces a trace of at least n dynamic instructions (generation
// stops at the first block boundary at or after n, so every block is
// complete and ends with its branch).
func (g *Generator) Generate(n int) (*trace.Trace, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload %s: trace length %d must be positive", g.prof.Name, n)
	}
	// A block has at most int(BlockLenMean)+3 instructions and the loop
	// starts one only while fewer than n are written, so this length is
	// an exact bound and the loop fills it in place.
	instrs := make([]trace.Instruction, n+int(g.prof.BlockLenMean)+2)
	i := 0
	bi := 0
	for i < n {
		b := &g.blocks[bi]
		pc := b.start
		for k := 0; k < b.bodyLen; k++ {
			g.makeInstr(&instrs[i], pc)
			i++
			pc += 4
		}
		taken := g.brRNG.Bool(b.takenProb)
		instrs[i] = trace.Instruction{
			PC:    pc,
			Class: isa.Branch,
			Dest:  isa.RegNone,
			Src1:  g.sampleSource(),
			Src2:  isa.RegNone,
			Taken: taken,
		}
		i++
		g.retire()
		if taken {
			if g.structRNG.Bool(g.prof.EscapeFrac) {
				bi = g.structRNG.Intn(g.prof.NumBlocks)
			} else {
				bi = b.takenTarget
			}
		} else {
			bi++
			if bi >= len(g.blocks) {
				bi = 0
			}
		}
	}
	return &trace.Trace{Name: g.prof.Name, Instrs: instrs[:i]}, nil
}

// makeInstr writes one non-branch instruction at pc into in.
func (g *Generator) makeInstr(in *trace.Instruction, pc uint64) {
	c := g.mixClasses[g.drawMix()]
	*in = trace.Instruction{
		PC:    pc,
		Class: c,
		Dest:  isa.RegNone,
		Src1:  g.sampleSource(),
		Src2:  isa.RegNone,
	}
	if g.depRNG.Hit(g.twoSrc) {
		in.Src2 = g.sampleSource()
	}
	if c != isa.Store {
		in.Dest = g.allocDest()
	}
	if c == isa.Load || c == isa.Store {
		in.Addr = g.sampleAddr()
	}
	if in.Dest >= 0 {
		g.producers[in.Dest] = g.dynIdx
		g.writes++
	}
	g.retire()
}

// drawMix draws an index into mixClasses with probability proportional
// to its weight: the first class whose cumulative weight exceeds the
// draw, else the last. It consumes one Float64 and returns what
// rng.WeightedSum returns on the same weights. The sums never decrease,
// so the classes they pass form a prefix and counting them finds it; the
// count takes no data-dependent branch.
func (g *Generator) drawMix() int {
	cum := g.mixCum
	target := g.structRNG.Float64() * cum[len(cum)-1]
	k := 0
	for _, c := range cum[:len(cum)-1] {
		if target >= c {
			k++
		}
	}
	return k
}

// retire ends the current dynamic instruction: it records the write
// count after it and moves on to the next index.
func (g *Generator) retire() {
	g.writesAt[g.dynIdx&(writeRing-1)] = g.writes
	g.dynIdx++
}

// allocDest assigns destination registers round-robin so the last
// NumArchRegs producers always hold distinct registers.
func (g *Generator) allocDest() int16 {
	r := g.nextDestReg
	g.nextDestReg++
	if g.nextDestReg >= isa.NumArchRegs {
		g.nextDestReg = 0
	}
	return r
}

// writeRing is the number of recent dynamic instructions whose write
// counts the generator keeps. A power of two above every built-in's
// DepLongMax of 200, so only registered profiles with longer dependences
// (or a geometric draw in the far tail) ever look further back.
const writeRing = 256

// sampleSource draws a source register that realizes a dependence at a
// controlled dynamic distance, or RegNone for a ready operand.
func (g *Generator) sampleSource() int16 {
	if g.depRNG.Hit(g.noDep) {
		return isa.RegNone
	}
	var dist int
	if g.depRNG.Hit(g.depShortFrac) {
		dist = g.depShort.Sample(&g.depRNG)
	} else {
		dist = g.depLong.Sample(&g.depRNG)
	}
	return g.sourceAt(dist)
}

// sourceAt returns the register of the most recent producer at dynamic
// distance >= dist (dist >= 1), or RegNone when there is none in the
// ring. Destinations are allocated round-robin, so the producer that is
// k dest-writes back holds register ringReg(k); the latest write at or
// before want = dynIdx−dist is k = writes − writesAt[want] writes back.
// A zero count at want means nothing was written by then, and k >= 64
// lies past the ring's horizon, where the operand is ready anyway —
// equivalent to RegNone at window sizes <= 64. Distances older than the
// write-count ring fall back to searchSource.
func (g *Generator) sourceAt(dist int) int16 {
	want := g.dynIdx - int64(dist)
	if want < 0 {
		return isa.RegNone
	}
	if dist > writeRing {
		return g.searchSource(want)
	}
	c := g.writesAt[want&(writeRing-1)]
	k := g.writes - c
	if c == 0 || k >= isa.NumArchRegs {
		return isa.RegNone
	}
	return int16(g.ringReg(int(k)))
}

// searchSource is sourceAt for any want >= 0 without the write-count
// ring. Going back in k, producer indices strictly decrease down to the
// -1 of registers never written, so "written at or before want, or never
// written" holds from some k on: it binary-searches the first such k.
func (g *Generator) searchSource(want int64) int16 {
	k := 0
	for step := isa.NumArchRegs / 2; step > 0; step /= 2 {
		if g.producers[g.ringReg(k+step-1)] > want {
			k += step
		}
	}
	if k == isa.NumArchRegs-1 && g.producers[g.ringReg(k)] > want {
		return isa.RegNone
	}
	reg := g.ringReg(k)
	if g.producers[reg] < 0 {
		return isa.RegNone
	}
	return int16(reg)
}

// ringReg returns the register of the producer k dest-writes back.
func (g *Generator) ringReg(k int) int {
	return int(uint(int(g.nextDestReg)-1-k+isa.NumArchRegs) % isa.NumArchRegs)
}

// sampleAddr draws a data address from the three-tier working set.
func (g *Generator) sampleAddr() uint64 {
	if g.coldBurstRem > 0 {
		g.coldBurstRem--
		return g.nextColdAddr()
	}
	u := g.memRNG.Float64()
	switch {
	case u < g.prof.DataHotFrac:
		return hotBase + uint64(g.memRNG.Int63n(int64(g.prof.DataHotSize)))&^7
	case u < g.prof.DataHotFrac+g.prof.DataWarmFrac:
		return warmBase + uint64(g.memRNG.Int63n(int64(g.prof.DataWarmSize)))&^7
	default:
		g.coldBurstRem = g.coldBurst.Sample(&g.memRNG) - 1
		return g.nextColdAddr()
	}
}

func (g *Generator) nextColdAddr() uint64 {
	a := coldBase + g.coldPtr
	g.coldPtr += g.prof.ColdStride
	if g.coldPtr >= g.prof.DataColdSize {
		g.coldPtr = 0
	}
	return a
}

// GenVersion is the trace-generation algorithm version. It is part of
// every ContentID, so any change to the generator (profiles, rng
// consumption order, block layout) invalidates content-keyed caches and
// stored artifacts instead of serving traces that no longer match what
// the current code would generate.
const GenVersion = 1

// ContentID returns the content key of the trace Generate(name, n, seed)
// produces: generation is deterministic, so the recipe fully determines
// every instruction. Caches and the artifact store use it to recognize
// "the same trace" across pointers, processes, and restarts.
func ContentID(name string, n int, seed uint64) string {
	return fmt.Sprintf("%s|n=%d|seed=%d|g%d", name, n, seed, GenVersion)
}

// Generate is a convenience that builds a generator for the named profile
// and produces a trace of at least n instructions. The returned trace
// carries the ContentID of its recipe.
func Generate(name string, n int, seed uint64) (*trace.Trace, error) {
	prof, err := ByName(name)
	if err != nil {
		return nil, err
	}
	g, err := NewGenerator(prof, seed)
	if err != nil {
		return nil, err
	}
	t, err := g.Generate(n)
	if err != nil {
		return nil, err
	}
	t.ContentID = ContentID(name, n, seed)
	return t, nil
}

package workload

import (
	"fmt"
	"slices"
	"sort"

	"fomodel/internal/isa"
)

// The twelve SPECint2000-like profiles. Each profile is tuned so that the
// trace statistics the first-order model consumes land where the paper
// reports them (see DESIGN.md §2): Table 1's spread of power-law exponents
// (vortex high beta, vpr low beta and high latency), gzip's branch-bound
// behaviour, mcf's and twolf's dominance by clustered long data-cache
// misses, and gcc/perl/vortex's instruction-cache pressure.
//
// Region sizes are chosen against the baseline hierarchy (4 KB 4-way L1s,
// 512 KB L2, 128 B lines): the hot region fits comfortably in L1, the warm
// region fits in L2 but not L1, and the cold region is streamed through with
// a full-line stride so that every cold access is a long (L2) miss.

// mix builds a Mix array from non-branch class weights.
func mix(alu, mul, div, fpu, load, store float64) [isa.NumClasses]float64 {
	var m [isa.NumClasses]float64
	m[isa.ALU] = alu
	m[isa.Mul] = mul
	m[isa.Div] = div
	m[isa.FPU] = fpu
	m[isa.Load] = load
	m[isa.Store] = store
	return m
}

// baseProfile carries the defaults shared by most integer benchmarks;
// individual profiles override what makes them distinctive.
func baseProfile(name string) Profile {
	return Profile{
		Name:           name,
		Mix:            mix(0.42, 0.08, 0.012, 0.02, 0.30, 0.17),
		BlockLenMean:   5,
		NumBlocks:      600,
		HotBlocks:      28,
		HotJumpFrac:    0.95,
		EscapeFrac:     0.01,
		HardBranchFrac: 0.08,
		HardTakenProb:  0.5,
		EasyBiasLo:     0.93,
		EasyBiasHi:     0.995,
		EasyTakenFrac:  0.55,
		NoDepFrac:      0.25,
		DepShortFrac:   0.60,
		DepShortMean:   3,
		DepLongAlpha:   0.7,
		DepLongMax:     200,
		TwoSrcFrac:     0.45,
		DataHotSize:    2 << 10,
		DataWarmSize:   64 << 10,
		DataColdSize:   64 << 20,
		DataHotFrac:    0.955,
		DataWarmFrac:   0.040,
		ColdBurstMean:  1.3,
		ColdStride:     128,
	}
}

// builtins is the profile table in alphabetical order, built once:
// ByName runs on every predict and must not rebuild and sort it.
var builtins = func() []Profile {
	ps := []Profile{
		bzip2Profile(),
		craftyProfile(),
		eonProfile(),
		gapProfile(),
		gccProfile(),
		gzipProfile(),
		mcfProfile(),
		parserProfile(),
		perlProfile(),
		twolfProfile(),
		vortexProfile(),
		vprProfile(),
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	return ps
}()

// Profiles returns the twelve synthetic SPECint2000-like profiles in
// alphabetical order. The slice is a fresh copy the caller may modify.
func Profiles() []Profile { return slices.Clone(builtins) }

// Names returns the profile names in alphabetical order.
func Names() []string {
	names := make([]string, len(builtins))
	for i := range builtins {
		names[i] = builtins[i].Name
	}
	return names
}

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	if i, ok := builtinIndex(name); ok {
		return builtins[i], nil
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q (known: %v)", name, Names())
}

// IsBuiltin reports whether name is one of the built-in profiles. It
// builds no error, so a caller that goes on to resolve a registered
// name pays nothing for the miss.
func IsBuiltin(name string) bool {
	_, ok := builtinIndex(name)
	return ok
}

func builtinIndex(name string) (int, bool) {
	for i := range builtins {
		if builtins[i].Name == name {
			return i, true
		}
	}
	return 0, false
}

// bzip2: compression with moderate ILP, tiny code, modest data misses.
func bzip2Profile() Profile {
	p := baseProfile("bzip")
	p.HardBranchFrac = 0.03
	p.DataHotFrac = 0.9388
	p.DataWarmFrac = 0.058
	p.ColdBurstMean = 1.4
	return p
}

// crafty: chess; branchy with bit-board ALU work, larger code.
func craftyProfile() Profile {
	p := baseProfile("crafty")
	p.Mix = mix(0.50, 0.07, 0.01, 0.01, 0.27, 0.15)
	p.NumBlocks = 2200
	p.HotBlocks = 40
	p.HotJumpFrac = 0.90
	p.EscapeFrac = 0.01
	p.HardBranchFrac = 0.05
	p.DataHotFrac = 0.9845
	p.DataWarmFrac = 0.015
	return p
}

// eon: the one C++/graphics-flavoured benchmark — more FP, longer blocks,
// highly predictable branches, mid-size code.
func eonProfile() Profile {
	p := baseProfile("eon")
	p.Mix = mix(0.36, 0.09, 0.015, 0.12, 0.27, 0.15)
	p.BlockLenMean = 7
	p.NumBlocks = 1800
	p.HotBlocks = 36
	p.HotJumpFrac = 0.92
	p.EscapeFrac = 0.01
	p.HardBranchFrac = 0.005
	p.NoDepFrac = 0.30
	p.DepShortFrac = 0.50
	p.DataHotFrac = 0.9843
	p.DataWarmFrac = 0.0152
	return p
}

// gap: group theory; long predictable loops over L2-resident sets.
func gapProfile() Profile {
	p := baseProfile("gap")
	p.BlockLenMean = 6.5
	p.HardBranchFrac = 0.01
	p.NoDepFrac = 0.28
	p.DepShortFrac = 0.55
	p.DataHotFrac = 0.875
	p.DataWarmFrac = 0.12
	p.DataWarmSize = 128 << 10
	p.ColdBurstMean = 1.4
	return p
}

// gcc: huge code footprint (the classic I-cache stresser), moderate
// branch behaviour, some cold data.
func gccProfile() Profile {
	p := baseProfile("gcc")
	p.NumBlocks = 9000
	p.HotBlocks = 64
	p.HotJumpFrac = 0.52
	p.EasyTakenFrac = 0.75
	p.EscapeFrac = 0.01
	p.HardBranchFrac = 0.05
	p.DataHotFrac = 0.9580
	p.DataWarmFrac = 0.04
	p.ColdBurstMean = 1.2
	return p
}

// gzip: tiny code, hot data, but hard-to-predict branches — the paper's
// branch-misprediction-dominated benchmark.
func gzipProfile() Profile {
	p := baseProfile("gzip")
	p.NumBlocks = 300
	p.HotBlocks = 20
	p.HotJumpFrac = 0.97
	p.EscapeFrac = 0.005
	p.HardBranchFrac = 0.20
	p.DataHotFrac = 0.9592
	p.DataWarmFrac = 0.04
	return p
}

// mcf: pointer-chasing over a graph far larger than L2 — long data-cache
// misses in dense bursts dominate (≈70% of CPI in the paper).
func mcfProfile() Profile {
	p := baseProfile("mcf")
	p.Mix = mix(0.38, 0.05, 0.008, 0.01, 0.37, 0.18)
	p.NumBlocks = 260
	p.HotBlocks = 18
	p.HotJumpFrac = 0.97
	p.EscapeFrac = 0.01
	p.HardBranchFrac = 0.05
	p.DepShortFrac = 0.70
	p.DepShortMean = 2.5
	p.DataHotFrac = 0.826
	p.DataWarmFrac = 0.16
	p.DataColdSize = 512 << 20
	p.ColdBurstMean = 1.4
	return p
}

// parser: dictionary walking; mid everything with some cold misses.
func parserProfile() Profile {
	p := baseProfile("parser")
	p.NumBlocks = 1400
	p.HotBlocks = 36
	p.HardBranchFrac = 0.04
	p.DataHotFrac = 0.9353
	p.DataWarmFrac = 0.06
	p.ColdBurstMean = 1.2
	return p
}

// perl: interpreter dispatch — large code, big warm data, moderate
// branches.
func perlProfile() Profile {
	p := baseProfile("perl")
	p.NumBlocks = 7000
	p.HotBlocks = 56
	p.HotJumpFrac = 0.55
	p.EasyTakenFrac = 0.75
	p.EscapeFrac = 0.01
	p.HardBranchFrac = 0.05
	p.DataHotFrac = 0.9390
	p.DataWarmFrac = 0.06
	return p
}

// twolf: place-and-route; long-latency arithmetic plus clustered long
// misses (≈60% of CPI in the paper) and poor branches.
func twolfProfile() Profile {
	p := baseProfile("twolf")
	p.Mix = mix(0.36, 0.12, 0.03, 0.06, 0.28, 0.15)
	p.NumBlocks = 500
	p.HotBlocks = 26
	p.HardBranchFrac = 0.15
	p.DepShortFrac = 0.68
	p.DepShortMean = 2.5
	p.DataHotFrac = 0.8707
	p.DataWarmFrac = 0.12
	p.DataColdSize = 256 << 20
	p.ColdBurstMean = 1.4
	return p
}

// vortex: OO database — the paper's high-ILP outlier (beta ≈ 0.7) with a
// large code footprint and predictable branches.
func vortexProfile() Profile {
	p := baseProfile("vortex")
	p.Mix = mix(0.44, 0.07, 0.01, 0.015, 0.29, 0.185)
	p.NumBlocks = 11000
	p.HotBlocks = 72
	p.HotJumpFrac = 0.48
	p.EasyTakenFrac = 0.85
	p.EscapeFrac = 0.01
	p.HardBranchFrac = 0.01
	p.EasyBiasLo = 0.96
	p.NoDepFrac = 0.38
	p.DepShortFrac = 0.30
	p.DepShortMean = 4
	p.DepLongAlpha = 0.5
	p.TwoSrcFrac = 0.35
	p.DataHotFrac = 0.9548
	p.DataWarmFrac = 0.044
	return p
}

// vpr: the paper's low-ILP outlier — tight dependence chains (beta ≈ 0.3)
// and high average latency (≈2.2 cycles) from mul/div/FP content.
func vprProfile() Profile {
	p := baseProfile("vpr")
	p.Mix = mix(0.26, 0.16, 0.055, 0.10, 0.27, 0.155)
	p.NumBlocks = 700
	p.HotBlocks = 30
	p.HardBranchFrac = 0.06
	p.NoDepFrac = 0.12
	p.DepShortFrac = 0.92
	p.DepShortMean = 2.2
	p.DepLongAlpha = 1.2
	p.TwoSrcFrac = 0.60
	p.DataHotFrac = 0.9261
	p.DataWarmFrac = 0.068
	p.ColdBurstMean = 1.4
	return p
}

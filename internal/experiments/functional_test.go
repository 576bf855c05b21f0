package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"fomodel/internal/cache"
	"fomodel/internal/predictor"
	"fomodel/internal/sampling"
	"fomodel/internal/stats"
	"fomodel/internal/statsim"
	"fomodel/internal/uarch"
	"fomodel/internal/workload"
)

// functionalConfigs is the classification matrix of TestGoldenFunctional:
// every input of the functional pass (warmup, TLB, predictor spec,
// hierarchy geometry) varied once from the simulator's baseline.
func functionalConfigs() []struct {
	name string
	cfg  uarch.Config
} {
	base := uarch.DefaultConfig()
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
	return []struct {
		name string
		cfg  uarch.Config
	}{
		{"default", base}, {"no-warmup", noWarm}, {"tlb", withTLB},
		{"bimodal-10", bimodal}, {"always-taken", taken}, {"l1d-8k", bigL1D},
	}
}

// TestGoldenFunctional pins every consumer of the functional
// cache/predictor/TLB pass — the model's statistics, the detailed
// simulator's miss counters, sampled simulation and the statistical
// simulation profile — across the classification matrix. Regenerate
// deliberately with:
//
//	go test ./internal/experiments -run TestGoldenFunctional -update
func TestGoldenFunctional(t *testing.T) {
	var b strings.Builder
	for _, bench := range []string{"gzip", "mcf"} {
		tr, err := workload.Generate(bench, 20000, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range functionalConfigs() {
			fmt.Fprintf(&b, "== %s %s\n", bench, c.name)
			scfg := stats.DefaultConfig()
			scfg.Hierarchy = c.cfg.Hierarchy
			scfg.PredictorBits = c.cfg.PredictorBits
			scfg.Predictor = c.cfg.Predictor
			scfg.TLB = c.cfg.TLB
			scfg.Warmup = c.cfg.Warmup
			sum, err := stats.Analyze(tr, scfg)
			if err != nil {
				t.Fatal(err)
			}
			renderSummary(&b, sum)

			r, err := uarch.Simulate(tr, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "sim cycles=%d misp=%d ishort=%d ilong=%d dshort=%d dlong=%d tlb=%d\n",
				r.Cycles, r.Mispredicts, r.ICacheShort, r.ICacheLong, r.DCacheShort, r.DCacheLong, r.TLBMisses)

			sr, err := sampling.Estimate(tr, c.cfg, sampling.Config{WindowLen: 2000, Period: 5000})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "sampled cpi=%.17g windows=%d\n", sr.CPI, sr.Windows)

			p, err := statsim.Measure(tr, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "profile mix=%.17g src1=%.17g src2=%.17g dist=%016x\n",
				p.Mix, p.Src1Frac, p.Src2Frac, hashFloats(p.DistHist))
			fmt.Fprintf(&b, "profile misp=%.17g ishort=%.17g ilong=%.17g pll=%.17g plo=%.17g pshort=%.17g\n",
				p.MispredictPerBranch, p.ICacheShortPerInstr, p.ICacheLongPerInstr,
				p.PLongAfterLong, p.PLongAfterOther, p.PShort)
			fmt.Fprintf(&b, "profile tlb=%.17g/%.17g\n", p.TLBMissPerLongMiss, p.TLBMissPerOtherAccess)
		}
	}
	compareGolden(t, "functional", b.String())
}

// renderSummary writes every field of sum: scalars in full, group maps
// in key order, and the position and gap lists as a count plus a hash.
func renderSummary(b *strings.Builder, sum *stats.Summary) {
	fmt.Fprintf(b, "stats n=%d mix=%.17g avglat=%.17g rob=%d\n",
		sum.Instructions, sum.Mix, sum.AvgLatency, sum.ROBSize)
	fmt.Fprintf(b, "stats br=%d misp=%d ishort=%d ilong=%d dshort=%d dlong=%d dtlb=%d\n",
		sum.Branches, sum.Mispredicts, sum.ICacheShort, sum.ICacheLong,
		sum.DCacheShort, sum.DCacheLong, sum.DTLBMisses)
	for _, g := range []struct {
		name string
		m    map[int]int
	}{{"mispgroups", sum.MispredictGroups}, {"longgroups", sum.LongMissGroups}, {"tlbgroups", sum.TLBMissGroups}} {
		fmt.Fprintf(b, "%s", g.name)
		keys := make([]int, 0, len(g.m))
		//folint:allow(detrand) the keys are sorted before use
		for k := range g.m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(b, " %d:%d", k, g.m[k])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(b, "longpos %d/%016x tlbpos %d/%016x igaps %d/%016x\n",
		len(sum.LongMissPositions), hashInt32s(sum.LongMissPositions),
		len(sum.TLBMissPositions), hashInt32s(sum.TLBMissPositions),
		len(sum.ICacheMissGaps), hashInt32s(sum.ICacheMissGaps))
}

// hashInt32s is the FNV-64a hash of vs in little-endian order.
func hashInt32s(vs []int32) uint64 {
	h := fnv.New64a()
	for _, v := range vs {
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(v)))
	}
	return h.Sum64()
}

// hashFloats is the FNV-64a hash of vs' IEEE bits in little-endian order.
func hashFloats(vs []float64) uint64 {
	h := fnv.New64a()
	for _, v := range vs {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	return h.Sum64()
}

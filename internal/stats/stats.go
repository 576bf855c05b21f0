// Package stats performs the functional (timing-free) trace analysis that
// parameterizes the first-order model. This is the paper's step 5 in §5:
// simple trace-driven simulations of the caches and branch predictor that
// produce miss-event *rates*, plus the clustering distribution of long data
// cache misses needed by equation (8) — no detailed cycle-level simulation
// involved.
package stats

import (
	"fmt"
	"math"

	"fomodel/internal/cache"
	"fomodel/internal/isa"
	"fomodel/internal/predictor"
	"fomodel/internal/trace"
)

// Summary holds every trace statistic the model consumes.
type Summary struct {
	// Name is the workload name; Instructions the dynamic count.
	Name         string
	Instructions int

	// Mix is the fraction of each operation class.
	Mix [isa.NumClasses]float64

	// Branches and Mispredicts count conditional branches and predictor
	// misses under the configured predictor.
	Branches    uint64
	Mispredicts uint64
	// MispredictGroups clusters mispredictions the way LongMissGroups
	// clusters long misses, but within Config.BranchBurstHorizon
	// instructions of the cluster leader: mispredictions that arrive
	// before the previous transient's ramp-up completes share one
	// drain+ramp cost (the paper's equation 3, and its §7 refinement #3
	// "modeling bursts of branch mispredictions").
	MispredictGroups map[int]int

	// ICacheShort / ICacheLong count instruction fetches that miss L1I and
	// hit / miss L2. Fetches are per instruction (the front end is modeled
	// as probing the I-cache once per instruction; with 32 instructions
	// per 128 B line, hits are free and every distinct missing line counts
	// once, which is what the penalty model needs).
	ICacheShort uint64
	ICacheLong  uint64

	// DCacheShort / DCacheLong count data accesses (loads and stores) that
	// miss L1D and hit / miss L2.
	DCacheShort uint64
	DCacheLong  uint64

	// LongMissGroups[i] is the number of *groups* of exactly i long data
	// misses. A long miss joins the current group when it falls within
	// ROBSize dynamic instructions of the group's *first* miss (the
	// leader); otherwise it starts a new group. Leader-based grouping
	// captures the machine behaviour the paper describes: only misses
	// that fit in the same ROB window behind the leader can issue before
	// dispatch stalls, so only those overlap the leader's memory latency.
	// This realizes the paper's f_LDM(i): overlapped misses in a group of
	// size i each cost isolated/i.
	LongMissGroups map[int]int
	// ROBSize is the reorder-buffer size used for grouping.
	ROBSize int
	// LongMissPositions records the dynamic-instruction index of every
	// long data miss, in trace order. The ROB size enters the analysis
	// only through the grouping above, so WithROB regroups these
	// positions for another ROB instead of re-running the cache
	// simulation.
	LongMissPositions []int32

	// ICacheMissGaps records, for every I-cache miss (short or long), the
	// dynamic-instruction distance to the previous I-cache miss (the
	// first miss gets a large sentinel gap). The fetch-buffer model uses
	// the distribution: only misses far enough from their predecessor
	// find a rebuilt buffer, so only those are hidden (paper §7
	// extension #2).
	ICacheMissGaps []int32

	// DTLBMisses counts data-TLB misses and TLBMissGroups clusters them
	// exactly like LongMissGroups (the paper's §7: TLB misses act much
	// like long data cache misses). Both are zero when no TLB is
	// configured. TLBMissPositions records where the TLB misses fall,
	// like LongMissPositions.
	DTLBMisses       uint64
	TLBMissGroups    map[int]int
	TLBMissPositions []int32

	// AvgLatency is the mix-weighted average execution latency with short
	// data-cache misses folded into load latency (the paper's Table 1
	// third column). Long misses are excluded: their cost is the separate
	// CPI_dcache term.
	AvgLatency float64
}

// Config controls the analysis.
type Config struct {
	// Hierarchy is the cache hierarchy to simulate.
	Hierarchy cache.HierarchyConfig
	// PredictorBits is the gshare index width (13 = the paper's 8K).
	PredictorBits uint
	// Predictor, when non-nil, overrides the default gshare with an
	// arbitrary predictor spec (used by the predictor-sensitivity
	// study).
	Predictor *predictor.Spec
	// Latencies is the functional-unit latency table.
	Latencies isa.LatencyTable
	// ROBSize groups long misses for f_LDM (the paper's baseline: 128).
	ROBSize int
	// TLB, when non-nil, simulates a data TLB alongside the caches (the
	// paper's §7 TLB extension).
	TLB *cache.TLBConfig
	// BranchBurstHorizon groups mispredictions into bursts: a
	// misprediction within this many dynamic instructions of its burst
	// leader shares the leader's drain and ramp-up (the paper's eq. 3).
	// Sharing only happens when the second mispredicted branch enters
	// the window before the first transient's ramp completes, i.e. when
	// the branches are nearly back to back; the default (12) reflects
	// that (ablated in BenchmarkAblationBranchBurst).
	BranchBurstHorizon int
	// Warmup, when true, replays the trace's instruction fetches through
	// the hierarchy once before measuring, so I-cache miss rates are
	// steady-state (capacity and conflict) rates without cold-start
	// compulsory misses — code re-executes, so warming it is faithful.
	// Data accesses are NOT warmed: a streaming working set never
	// revisits its lines, so its compulsory misses are real misses and
	// warming them away with an identical replay would be wrong. The
	// predictor is not warmed either; it trains within a few thousand
	// branches.
	Warmup bool
}

// DefaultConfig returns the paper's baseline analysis configuration.
func DefaultConfig() Config {
	return Config{
		Hierarchy:          cache.DefaultHierarchy(),
		PredictorBits:      13,
		Latencies:          isa.DefaultLatencies(),
		ROBSize:            128,
		BranchBurstHorizon: 12,
	}
}

// Analyze runs the functional cache and predictor simulations over t and
// collects the model inputs.
func Analyze(t *trace.Trace, cfg Config) (*Summary, error) {
	if t.Len() == 0 {
		return nil, fmt.Errorf("stats: empty trace %q", t.Name)
	}
	if t.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("stats: trace %q has %d instructions, more than miss positions can index", t.Name, t.Len())
	}
	if cfg.ROBSize <= 0 {
		return nil, fmt.Errorf("stats: ROB size %d must be positive", cfg.ROBSize)
	}
	if err := cfg.Latencies.Validate(); err != nil {
		return nil, err
	}
	h, err := cache.NewHierarchy(cfg.Hierarchy)
	if err != nil {
		return nil, err
	}
	gs, err := newPredictor(cfg.Predictor, cfg.PredictorBits)
	if err != nil {
		return nil, err
	}

	var tlb *cache.TLB
	if cfg.TLB != nil {
		tlb, err = cache.NewTLB(*cfg.TLB)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Warmup {
		WarmHierarchy(h, t)
	}

	s := &Summary{
		Name:             t.Name,
		Instructions:     t.Len(),
		Mix:              t.Mix(),
		MispredictGroups: make(map[int]int),
	}

	burstHorizon := cfg.BranchBurstHorizon
	if burstHorizon <= 0 {
		burstHorizon = 12
	}
	var latSum float64
	mispClusters := newClusterCounter(burstHorizon, s.MispredictGroups)
	lastIMiss := -1 << 30

	for i := range t.Instrs {
		in := &t.Instrs[i]
		fr := h.Fetch(in.PC)
		if fr != cache.Hit {
			gap := i - lastIMiss
			if gap > 1<<29 {
				gap = 1 << 29
			}
			s.ICacheMissGaps = append(s.ICacheMissGaps, int32(gap))
			lastIMiss = i
		}
		switch fr {
		case cache.ShortMiss:
			s.ICacheShort++
		case cache.LongMiss:
			s.ICacheLong++
		}

		lat := float64(cfg.Latencies.Latency(in.Class))
		switch in.Class {
		case isa.Branch:
			pred := gs.Predict(in.PC)
			gs.Update(in.PC, in.Taken)
			s.Branches++
			if pred != in.Taken {
				s.Mispredicts++
				mispClusters.note(i)
			}
		case isa.Load, isa.Store:
			if tlb != nil && !tlb.Access(in.Addr) {
				s.DTLBMisses++
				s.TLBMissPositions = append(s.TLBMissPositions, int32(i))
			}
			dr := h.Data(in.Addr)
			switch dr {
			case cache.ShortMiss:
				s.DCacheShort++
				if in.Class == isa.Load {
					// Short misses act like long-latency functional
					// units (paper §4.3), lengthening L.
					lat += float64(cfg.Hierarchy.ShortMissLatency)
				}
			case cache.LongMiss:
				s.DCacheLong++
				s.LongMissPositions = append(s.LongMissPositions, int32(i))
			}
		}
		latSum += lat
	}
	mispClusters.finish()
	s.AvgLatency = latSum / float64(t.Len())
	s.groupByROB(cfg.ROBSize)
	return s, nil
}

// WithROB returns a copy of s with LongMissGroups, TLBMissGroups and
// ROBSize rebuilt for a rob-entry reorder buffer from the recorded miss
// positions. The result equals what Analyze returns with Config.ROBSize
// set to rob, without repeating the cache and predictor simulations.
// The copy shares s's slices and its MispredictGroups map; treat both
// as read-only.
func (s *Summary) WithROB(rob int) *Summary {
	c := *s
	c.groupByROB(rob)
	return &c
}

// groupByROB sets ROBSize and rebuilds the two ROB-dependent groupings
// from the miss positions.
func (s *Summary) groupByROB(rob int) {
	s.ROBSize = rob
	s.LongMissGroups = groupPositions(s.LongMissPositions, rob)
	s.TLBMissGroups = groupPositions(s.TLBMissPositions, rob)
}

// groupPositions clusters miss events at the given trace positions
// within horizon instructions of their group leader.
func groupPositions(positions []int32, horizon int) map[int]int {
	groups := make(map[int]int)
	c := newClusterCounter(horizon, groups)
	for _, p := range positions {
		c.note(int(p))
	}
	c.finish()
	return groups
}

// clusterCounter implements the leader-based grouping of miss events
// within a ROB window (see Summary.LongMissGroups).
type clusterCounter struct {
	robSize int
	groups  map[int]int
	leader  int
	size    int
}

func newClusterCounter(robSize int, groups map[int]int) *clusterCounter {
	return &clusterCounter{robSize: robSize, groups: groups, leader: -1}
}

// note records a miss event at dynamic instruction index i; indices must
// be non-decreasing.
func (c *clusterCounter) note(i int) {
	if c.leader >= 0 && i-c.leader <= c.robSize {
		c.size++
		return
	}
	if c.size > 0 {
		c.groups[c.size]++
	}
	c.size = 1
	c.leader = i
}

// finish flushes the trailing group.
func (c *clusterCounter) finish() {
	if c.size > 0 {
		c.groups[c.size]++
		c.size = 0
	}
}

// WarmHierarchy replays the trace's instruction fetches through h and then
// clears h's statistics, leaving warmed I-side cache contents (see
// Config.Warmup for why only the instruction side is warmed). Both the
// analyzer and the detailed simulator use this, so model and simulator see
// identical steady-state cache behaviour.
func WarmHierarchy(h *cache.Hierarchy, t *trace.Trace) {
	for i := range t.Instrs {
		h.Fetch(t.Instrs[i].PC)
	}
	h.ResetStats()
}

// MispredictsPerInstr returns branch mispredictions per dynamic instruction.
func (s *Summary) MispredictsPerInstr() float64 {
	return float64(s.Mispredicts) / float64(s.Instructions)
}

// MispredictRate returns mispredictions per branch, or 0 with no branches.
func (s *Summary) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// ICacheShortPerInstr returns L1-I misses that hit L2, per instruction.
func (s *Summary) ICacheShortPerInstr() float64 {
	return float64(s.ICacheShort) / float64(s.Instructions)
}

// ICacheLongPerInstr returns instruction fetches missing L2, per instruction.
func (s *Summary) ICacheLongPerInstr() float64 {
	return float64(s.ICacheLong) / float64(s.Instructions)
}

// DCacheLongPerInstr returns long data misses per instruction.
func (s *Summary) DCacheLongPerInstr() float64 {
	return float64(s.DCacheLong) / float64(s.Instructions)
}

// LongMisses returns the total number of long data misses (N_LDM).
func (s *Summary) LongMisses() uint64 { return s.DCacheLong }

// FLDM returns the paper's f_LDM distribution: FLDM()[i] is the fraction of
// long data misses belonging to groups of exactly i overlapping misses. The
// fractions sum to 1 when any long misses exist.
func (s *Summary) FLDM() map[int]float64 {
	f := make(map[int]float64, len(s.LongMissGroups))
	if s.DCacheLong == 0 {
		return f
	}
	n := float64(s.DCacheLong)
	//folint:allow(detrand) keyed writes into the result map; iteration order cannot reach the output
	for size, groups := range s.LongMissGroups {
		f[size] = float64(size*groups) / n
	}
	return f
}

// OverlapFactor returns Σ_i f_LDM(i)/i — the multiplier of equation (8)
// applied to the isolated long-miss penalty. It is 1 when every miss is
// isolated and approaches 0 for heavily clustered misses. With no long
// misses it returns 1 (the penalty term is multiplied by zero misses
// anyway).
func (s *Summary) OverlapFactor() float64 {
	return overlapFactor(s.LongMissGroups, s.DCacheLong)
}

// BranchBurstFactor is Σ_i f_misp(i)/i over the misprediction burst-size
// distribution — the eq. (3) multiplier applied to the drain+ramp part of
// the branch penalty; 1 when every misprediction is isolated.
func (s *Summary) BranchBurstFactor() float64 {
	return overlapFactor(s.MispredictGroups, s.Mispredicts)
}

// TLBMissesPerInstr returns data-TLB misses per dynamic instruction.
func (s *Summary) TLBMissesPerInstr() float64 {
	return float64(s.DTLBMisses) / float64(s.Instructions)
}

// TLBOverlapFactor is the equation-(8) overlap multiplier applied to TLB
// misses, which the paper's §7 expects to behave like long data misses.
func (s *Summary) TLBOverlapFactor() float64 {
	return overlapFactor(s.TLBMissGroups, s.DTLBMisses)
}

func overlapFactor(groupCounts map[int]int, events uint64) float64 {
	if events == 0 {
		return 1
	}
	var groups int
	//folint:allow(detrand) integer sum over the values; addition order cannot change it
	for _, g := range groupCounts {
		groups += g
	}
	return float64(groups) / float64(events)
}

// IsolatedICacheFrac returns the fraction of I-cache misses whose gap to
// the previous miss is at least minGap dynamic instructions — misses far
// enough from their predecessor that a fetch buffer has had time to
// rebuild. Returns 1 when there are no misses.
func (s *Summary) IsolatedICacheFrac(minGap int) float64 {
	if len(s.ICacheMissGaps) == 0 {
		return 1
	}
	isolated := 0
	for _, g := range s.ICacheMissGaps {
		if int(g) >= minGap {
			isolated++
		}
	}
	return float64(isolated) / float64(len(s.ICacheMissGaps))
}

// newPredictor instantiates the configured predictor: the spec when
// given, otherwise the default gshare with the given index width.
func newPredictor(spec *predictor.Spec, bits uint) (predictor.Predictor, error) {
	if spec != nil {
		return spec.New()
	}
	return predictor.NewGshare(bits)
}

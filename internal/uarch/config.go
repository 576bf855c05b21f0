// Package uarch implements a detailed, cycle-level simulator of the paper's
// first-order superscalar machine (Fig. 3): a ΔP-stage front-end pipeline, a
// single homogeneous issue window with oldest-first out-of-order issue whose
// entries are freed at issue, a separate reorder buffer freed in-order at
// retire, equal fetch/dispatch/issue/retire width i, an unbounded number of
// fully pipelined functional units of each class, an 8K gshare predictor,
// and a two-level cache hierarchy. Wrong-path instructions are not
// simulated: with oldest-first issue they never inhibit useful instructions
// (paper §4.1), so miss-events act as throttles on the flow of useful
// instructions — a mispredicted branch stops fetch until it resolves, an
// I-cache miss stalls fetch for the miss delay, and a long data-cache miss
// blocks retirement until its data returns.
//
// Miss-event classification (cache hit/short/long, branch mispredicted or
// not, TLB miss or not) is precomputed in program order by stats.Classify,
// the one functional pass, which stats.Analyze also steps for the model's
// inputs; the timing simulation charges the precomputed events.
// Decoupling classification from timing, with one pass for both sides,
// keeps the analytical model and the simulator in exact agreement on
// miss-event *counts*, so evaluation differences isolate the model's
// *timing* approximations, which is what the paper evaluates.
//
// The timing pass runs in program order rather than cycle by cycle: each
// instruction in turn is assigned its fetch, dispatch, issue and retire
// cycle from the cycles of older instructions alone. Fetch, dispatch and
// retire are in order under the width, front-end, window and ROB
// limits; issue takes the first cycle at or after dispatch + 1 and
// operand readiness (cross-cluster operands arrive BypassLatency later)
// whose width, FU and cluster slots older instructions have left free.
// Issue is oldest first and every latency is at least one cycle, so a
// younger instruction can never change an older one's timing, which
// makes the result identical to stepping the machine; a cycle-stepping
// simulator is kept in the tests as the oracle the pass is checked
// against. SerializeLongMisses changes only the events the pass charges
// (stats.IsolateLongMisses), not the pass.
package uarch

import (
	"fmt"

	"fomodel/internal/cache"
	"fomodel/internal/isa"
	"fomodel/internal/predictor"
	"fomodel/internal/stats"
)

// Config parameterizes the simulated machine. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// FrontEndDepth is ΔP: the number of pipeline stages between fetch and
	// dispatch. The paper's baseline is 5; its depth studies also use 9.
	FrontEndDepth int
	// Width is the parameter i: fetch, pipeline, dispatch, issue, and
	// retire width are all equal (paper §2). Baseline: 4.
	Width int
	// WindowSize is the number of issue-window slots. Baseline: 48.
	WindowSize int
	// ROBSize is the number of reorder-buffer slots. Baseline: 128.
	ROBSize int
	// Latencies gives the fully pipelined execution latency per class.
	Latencies isa.LatencyTable
	// Hierarchy configures the caches (ignored when both ideal flags are
	// set). Misses add the hierarchy's short/long latencies.
	Hierarchy cache.HierarchyConfig
	// PredictorBits is the gshare index width; 13 = the paper's 8K table.
	PredictorBits uint
	// Predictor, when non-nil, overrides the default gshare with an
	// arbitrary predictor spec.
	Predictor *predictor.Spec

	// IdealICache disables instruction-cache stalls (simulations 1, 3, 5
	// of the paper's §1.1 experiment).
	IdealICache bool
	// IdealDCache disables all data-cache miss latencies.
	IdealDCache bool
	// IdealPredictor disables branch-misprediction fetch breaks.
	IdealPredictor bool

	// Warmup replays instruction fetches through the hierarchy before the
	// measured functional pass, removing compulsory I-side misses (see
	// stats.Config.Warmup).
	Warmup bool

	// SerializeLongMisses reproduces the paper's §4.3 isolation
	// experiment: only the long data misses that lead a group of eq. 8's
	// grouping — more than ROBSize instructions after the last kept
	// miss — are charged, and the rest are demoted to hits
	// (stats.IsolateLongMisses). A kept miss cannot dispatch until the
	// previous one retires, so every charged miss is observed in
	// isolation.
	SerializeLongMisses bool

	// FUCounts, when any entry is positive, limits how many instructions
	// of that class may issue per cycle (the units remain fully
	// pipelined). Zero entries are unbounded — the paper's baseline has
	// an unbounded number of units of each type; limited units are its
	// §7 extension #1.
	FUCounts [isa.NumClasses]int

	// FetchBufferSize adds entries beyond the front-end pipeline's
	// FrontEndDepth×Width, letting fetch run ahead during dispatch
	// stalls and hide part of subsequent I-cache miss delays (the §7
	// extension #2).
	FetchBufferSize int

	// TLB, when non-nil, adds a data TLB whose misses extend the
	// access's latency by the page-walk time and block retirement like
	// long data misses (the §7 extension #4).
	TLB *cache.TLBConfig

	// InOrder restricts issue to strict program order: the window acts
	// as a FIFO and issue stalls at the first not-ready instruction.
	// This is the classic in-order baseline (Emma & Davidson's regime in
	// the paper's §1.2) — the first-order model explicitly targets
	// out-of-order machines, and this switch quantifies the difference.
	InOrder bool

	// RecordIssueTrace captures the per-cycle issue counts in
	// Result.IssueTrace (capped at 4M cycles) — used to observe
	// transients empirically (the paper's Fig. 7).
	RecordIssueTrace bool

	// Clusters, when > 1, partitions the issue window into that many
	// equal slices with round-robin dispatch steering; each cluster may
	// issue at most Width/Clusters instructions per cycle, and an
	// operand produced in another cluster arrives BypassLatency cycles
	// late (the §7 extension #3: partitioned issue windows and clustered
	// functional units). Width and WindowSize must be divisible by
	// Clusters.
	Clusters int
	// BypassLatency is the extra cross-cluster forwarding delay; only
	// meaningful when Clusters > 1.
	BypassLatency int
}

// DefaultConfig returns the paper's baseline processor: 5 front-end
// stages, width 4, a 48-entry window, a 128-entry ROB, default latencies,
// the baseline hierarchy, and an 8K gshare.
func DefaultConfig() Config {
	return Config{
		FrontEndDepth: 5,
		Width:         4,
		WindowSize:    48,
		ROBSize:       128,
		Latencies:     isa.DefaultLatencies(),
		Hierarchy:     cache.DefaultHierarchy(),
		PredictorBits: 13,
		Warmup:        true,
	}
}

// Analysis projects c onto the functional analysis the model and the
// classification pass share (stats.Config): the hierarchy, the
// predictor (its spec, else the gshare bits), the latencies, the ROB
// for the miss grouping, the TLB and the warm-up. It is the one place a
// machine becomes an analysis configuration; classificationKey keys on
// the subset of it that the classification pass reads.
func (c Config) Analysis() stats.Config {
	return stats.Config{
		Hierarchy:     c.Hierarchy,
		PredictorBits: c.PredictorBits,
		Predictor:     c.Predictor,
		Latencies:     c.Latencies,
		ROBSize:       c.ROBSize,
		TLB:           c.TLB,
		Warmup:        c.Warmup,
	}
}

// Upper bounds enforced by Validate. A simulation sizes its per-run
// buffers from Width, WindowSize, ROBSize and FrontEndDepth×Width +
// FetchBufferSize, so without them one request could ask a serving
// process for more memory than it has. Every latency — per class, the
// hierarchy's miss latencies, the TLB walk and the cluster bypass — is
// capped at MaxLatency, the simulator's deadlock horizon: a single wait
// longer than that is reported as a deadlock anyway.
const (
	MaxWidth           = 64
	MaxWindowSize      = 1 << 16
	MaxROBSize         = 1 << 16
	MaxFrontEndDepth   = 1 << 12
	MaxFetchBufferSize = 1 << 12
	MaxLatency         = maxIdleCycles
)

// Validate reports the first structural problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.FrontEndDepth < 1 || c.FrontEndDepth > MaxFrontEndDepth:
		return fmt.Errorf("uarch: front-end depth %d outside [1, %d]", c.FrontEndDepth, MaxFrontEndDepth)
	case c.Width < 1 || c.Width > MaxWidth:
		return fmt.Errorf("uarch: width %d outside [1, %d]", c.Width, MaxWidth)
	case c.WindowSize < 1 || c.WindowSize > MaxWindowSize:
		return fmt.Errorf("uarch: window size %d outside [1, %d]", c.WindowSize, MaxWindowSize)
	case c.ROBSize < c.WindowSize:
		return fmt.Errorf("uarch: ROB size %d smaller than window %d", c.ROBSize, c.WindowSize)
	case c.ROBSize > MaxROBSize:
		return fmt.Errorf("uarch: ROB size %d above %d", c.ROBSize, MaxROBSize)
	}
	if err := c.Latencies.Validate(); err != nil {
		return err
	}
	for cl, lat := range c.Latencies {
		if lat > MaxLatency {
			return fmt.Errorf("uarch: %v latency %d above %d", isa.Class(cl), lat, MaxLatency)
		}
	}
	if err := c.Hierarchy.Validate(); err != nil {
		return err
	}
	if c.Hierarchy.ShortMissLatency > MaxLatency || c.Hierarchy.LongMissLatency > MaxLatency {
		return fmt.Errorf("uarch: miss latencies (%d, %d) above %d",
			c.Hierarchy.ShortMissLatency, c.Hierarchy.LongMissLatency, MaxLatency)
	}
	if c.PredictorBits == 0 || c.PredictorBits > 28 {
		return fmt.Errorf("uarch: predictor bits %d out of range [1,28]", c.PredictorBits)
	}
	if c.Predictor != nil {
		if err := c.Predictor.Validate(); err != nil {
			return err
		}
	}
	for cl, n := range c.FUCounts {
		if n < 0 {
			return fmt.Errorf("uarch: negative FU count %d for %v", n, isa.Class(cl))
		}
	}
	if c.FetchBufferSize < 0 || c.FetchBufferSize > MaxFetchBufferSize {
		return fmt.Errorf("uarch: fetch buffer size %d outside [0, %d]", c.FetchBufferSize, MaxFetchBufferSize)
	}
	if c.TLB != nil {
		if err := c.TLB.Validate(); err != nil {
			return err
		}
		if c.TLB.MissLatency > MaxLatency {
			return fmt.Errorf("uarch: TLB miss latency %d above %d", c.TLB.MissLatency, MaxLatency)
		}
	}
	if c.Clusters > 1 {
		if c.Width%c.Clusters != 0 {
			return fmt.Errorf("uarch: width %d not divisible by %d clusters", c.Width, c.Clusters)
		}
		if c.WindowSize%c.Clusters != 0 {
			return fmt.Errorf("uarch: window %d not divisible by %d clusters", c.WindowSize, c.Clusters)
		}
		if c.BypassLatency < 0 || c.BypassLatency > MaxLatency {
			return fmt.Errorf("uarch: bypass latency %d outside [0, %d]", c.BypassLatency, MaxLatency)
		}
	}
	return nil
}

// Result reports a simulation's outcome.
type Result struct {
	// Instructions is the number of useful instructions retired.
	Instructions int
	// Cycles is the total execution time.
	Cycles int64

	// Mispredicts counts mispredicted conditional branches (0 when the
	// predictor is ideal).
	Mispredicts uint64
	// ICacheShort / ICacheLong count fetch stalls charged for L1-I misses
	// that hit / miss in L2 (0 when the I-cache is ideal).
	ICacheShort uint64
	ICacheLong  uint64
	// DCacheShort / DCacheLong count data accesses charged short / long
	// miss latency (0 when the D-cache is ideal).
	DCacheShort uint64
	DCacheLong  uint64
	// TLBMisses counts data-TLB misses charged the page-walk latency
	// (0 without a configured TLB).
	TLBMisses uint64

	// MispredictsOverlapped counts mispredicted branches that resolved
	// while at least one long data miss was outstanding; ICacheOverlapped
	// likewise counts I-cache stalls that began under an outstanding long
	// miss. These feed the paper's Fig. 2 overlap compensation.
	MispredictsOverlapped uint64
	ICacheOverlapped      uint64

	// WindowOccupancySum accumulates window occupancy each cycle;
	// ROBOccupancySum and FrontEndOccupancySum likewise, for
	// average-occupancy diagnostics.
	WindowOccupancySum   uint64
	ROBOccupancySum      uint64
	FrontEndOccupancySum uint64

	// IssueHistogram[k] counts cycles in which exactly k instructions
	// issued (k ranges 0..Width); used by the §6.2 issue-width study.
	IssueHistogram []int64
	// IssueTrace is the per-cycle issue count sequence (only recorded
	// with Config.RecordIssueTrace).
	IssueTrace []uint8
}

// CPI returns cycles per retired instruction.
func (r *Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// IPC returns retired instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// AvgWindowOccupancy returns the mean number of valid window entries per
// cycle.
func (r *Result) AvgWindowOccupancy() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.WindowOccupancySum) / float64(r.Cycles)
}

// AvgROBOccupancy returns the mean number of valid ROB entries per cycle.
func (r *Result) AvgROBOccupancy() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.ROBOccupancySum) / float64(r.Cycles)
}

// AvgFrontEndOccupancy returns the mean number of fetched-but-undispatched
// instructions per cycle (front-end pipeline plus fetch buffer).
func (r *Result) AvgFrontEndOccupancy() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.FrontEndOccupancySum) / float64(r.Cycles)
}

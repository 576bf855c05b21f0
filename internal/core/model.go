// Package core implements the paper's contribution: the first-order
// analytical superscalar performance model. Overall performance is
//
//	CPI = CPI_steadystate + CPI_brmisp + CPI_icachemiss + CPI_dcachemiss  (1)
//
// where the steady-state term comes from the power-law IW characteristic
// adjusted by Little's law and clipped at the machine issue width (§3), and
// each miss-event term is (events/instruction) × (penalty/event) with the
// penalties of equations (2)–(8):
//
//	branch (2,3):  win_drain + ΔP + ramp_up        (÷ burst for clusters)
//	I-cache (4,5): ΔI + ramp_up − win_drain        (≈ ΔI; depth-independent)
//	D-cache (6–8): ΔD × Σ f_LDM(i)/i               (overlap within the ROB)
//
// The drain and ramp-up terms are computed by discrete integration of the
// IW characteristic — the same leaky-bucket recurrence the authors iterated
// in a spreadsheet for their Fig. 8 (see transient.go).
package core

import (
	"fmt"
	"math"

	"fomodel/internal/isa"
)

// Machine holds the microarchitecture parameters of the modeled processor.
type Machine struct {
	// Width is the fetch/dispatch/issue/retire width i.
	Width int
	// FrontEndDepth is ΔP, the front-end pipeline depth in stages.
	FrontEndDepth int
	// WindowSize is the issue-window capacity.
	WindowSize int
	// ROBSize is the reorder-buffer capacity.
	ROBSize int
	// ShortMissLatency is the L2 access latency (ΔI for L1 misses).
	ShortMissLatency int
	// LongMissLatency is the memory latency (ΔD, and the penalty charged
	// to fetches that miss in the L2).
	LongMissLatency int

	// FUCounts, when any entry is positive, limits per-cycle issue of
	// that class (paper §7 extension #1). The model lowers the
	// saturation level to min over limited classes of count/mix — the
	// paper's "lower saturation level than the maximum issue width".
	// Requires Inputs.Mix.
	FUCounts [isa.NumClasses]int

	// FetchBuffer is the number of fetch-buffer entries beyond the
	// front-end pipeline (paper §7 extension #2); the model credits the
	// I-cache miss penalty with the FetchBuffer/Width cycles the buffer
	// can cover while draining.
	FetchBuffer int

	// TLBMissLatency is the data-TLB page-walk time (paper §7 extension
	// #4); TLB misses are charged like long data misses. Zero disables
	// the term.
	TLBMissLatency int

	// Clusters and BypassLatency model partitioned issue windows (paper
	// §7 extension #3). With round-robin steering a fraction
	// (Clusters−1)/Clusters of dependence edges cross clusters and pay
	// the bypass, so the model inflates the average latency to
	// L + BypassLatency·(Clusters−1)/Clusters. Clusters ≤ 1 means a
	// unified window.
	Clusters      int
	BypassLatency int
}

// DefaultMachine returns the paper's baseline machine.
func DefaultMachine() Machine {
	return Machine{
		Width:            4,
		FrontEndDepth:    5,
		WindowSize:       48,
		ROBSize:          128,
		ShortMissLatency: 8,
		LongMissLatency:  200,
	}
}

// Validate reports the first structural problem with the machine.
func (m Machine) Validate() error {
	switch {
	case m.Width < 1:
		return fmt.Errorf("core: width %d < 1", m.Width)
	case m.FrontEndDepth < 1:
		return fmt.Errorf("core: front-end depth %d < 1", m.FrontEndDepth)
	case m.WindowSize < 1:
		return fmt.Errorf("core: window size %d < 1", m.WindowSize)
	case m.ROBSize < 1:
		return fmt.Errorf("core: ROB size %d < 1", m.ROBSize)
	case m.ShortMissLatency < 0 || m.LongMissLatency < 0:
		return fmt.Errorf("core: negative miss latencies (%d, %d)", m.ShortMissLatency, m.LongMissLatency)
	case m.FetchBuffer < 0:
		return fmt.Errorf("core: negative fetch buffer %d", m.FetchBuffer)
	case m.TLBMissLatency < 0:
		return fmt.Errorf("core: negative TLB miss latency %d", m.TLBMissLatency)
	case m.Clusters > 1 && m.BypassLatency < 0:
		return fmt.Errorf("core: negative bypass latency %d", m.BypassLatency)
	}
	for c, n := range m.FUCounts {
		if n < 0 {
			return fmt.Errorf("core: negative FU count %d for %v", n, isa.Class(c))
		}
	}
	return nil
}

// Inputs holds the program statistics the model consumes. All of them come
// from functional trace analysis (packages iw and stats) — no detailed
// simulation is required.
type Inputs struct {
	// Name identifies the workload.
	Name string
	// Alpha and Beta are the unit-latency IW power-law parameters
	// (I = Alpha·W^Beta), fitted from idealized window-limited trace
	// simulation (paper Table 1).
	Alpha, Beta float64
	// AvgLatency is L: the mix-weighted mean execution latency including
	// short data-cache misses folded in (Table 1, third column).
	AvgLatency float64
	// MispredictsPerInstr is branch mispredictions per dynamic
	// instruction under the modeled predictor.
	MispredictsPerInstr float64
	// ICacheShortPerInstr / ICacheLongPerInstr are instruction fetches
	// per dynamic instruction missing L1-I and hitting / missing L2.
	ICacheShortPerInstr float64
	ICacheLongPerInstr  float64
	// DCacheLongPerInstr is long (L2) data misses per dynamic instruction.
	DCacheLongPerInstr float64
	// OverlapFactor is Σ_i f_LDM(i)/i from the long-miss cluster
	// distribution within the ROB (equation 8); 1 when every long miss is
	// isolated.
	OverlapFactor float64
	// Mix is the dynamic instruction-class composition; only needed when
	// the machine limits functional units (Machine.FUCounts).
	Mix [isa.NumClasses]float64
	// BranchBurstFactor is the measured Σ f_misp(i)/i of misprediction
	// bursts, used by BranchMeasured; 0 is treated as 1 (all isolated).
	BranchBurstFactor float64
	// TLBMissesPerInstr is data-TLB misses per dynamic instruction and
	// TLBOverlapFactor its equation-(8) overlap multiplier; both are
	// ignored unless the machine sets TLBMissLatency.
	TLBMissesPerInstr float64
	TLBOverlapFactor  float64
	// MeasuredSteadyIPC, when positive, overrides the power-law +
	// Little's-law steady state with a directly measured IW point: the
	// idealized window-limited issue rate at the machine's window size
	// with real instruction latencies. The paper relies on the machine
	// being in the saturated part of the curve, where fit and measurement
	// agree; for an unsaturated low-ILP workload (the paper's vpr
	// outlier) the measured point avoids compounding the fit error with
	// the Little's-law approximation. The transient integrations always
	// use the power law.
	MeasuredSteadyIPC float64
}

// Validate reports the first structural problem with the inputs.
func (in Inputs) Validate() error {
	switch {
	case in.Alpha <= 0:
		return fmt.Errorf("core: alpha %v <= 0", in.Alpha)
	case in.Beta <= 0 || in.Beta > 1.5:
		return fmt.Errorf("core: beta %v outside (0, 1.5]", in.Beta)
	case in.AvgLatency < 1:
		return fmt.Errorf("core: average latency %v < 1", in.AvgLatency)
	case in.MispredictsPerInstr < 0 || in.MispredictsPerInstr > 1:
		return fmt.Errorf("core: mispredicts/instr %v outside [0,1]", in.MispredictsPerInstr)
	case in.ICacheShortPerInstr < 0 || in.ICacheLongPerInstr < 0:
		return fmt.Errorf("core: negative I-cache miss rates")
	case in.DCacheLongPerInstr < 0:
		return fmt.Errorf("core: negative D-cache long miss rate")
	case in.OverlapFactor < 0 || in.OverlapFactor > 1:
		return fmt.Errorf("core: overlap factor %v outside [0,1]", in.OverlapFactor)
	case in.MeasuredSteadyIPC < 0:
		return fmt.Errorf("core: measured steady IPC %v < 0", in.MeasuredSteadyIPC)
	case in.TLBMissesPerInstr < 0 || in.TLBMissesPerInstr > 1:
		return fmt.Errorf("core: TLB misses/instr %v outside [0,1]", in.TLBMissesPerInstr)
	case in.TLBOverlapFactor < 0 || in.TLBOverlapFactor > 1:
		return fmt.Errorf("core: TLB overlap factor %v outside [0,1]", in.TLBOverlapFactor)
	case in.BranchBurstFactor < 0 || in.BranchBurstFactor > 1:
		return fmt.Errorf("core: branch burst factor %v outside [0,1]", in.BranchBurstFactor)
	}
	return nil
}

// BranchPenaltyMode selects how the branch misprediction penalty is
// derived from the transient analysis.
type BranchPenaltyMode int

const (
	// BranchMidpoint is the paper's §5 evaluation choice: the average of
	// the isolated penalty (drain + ΔP + ramp-up) and the fully clustered
	// bound (ΔP) — "the average of 5 and 10 cycles (i.e. 7.5)" for the
	// baseline machine.
	BranchMidpoint BranchPenaltyMode = iota
	// BranchIsolated uses the isolated upper bound of equation (2).
	BranchIsolated
	// BranchBurst uses equation (3) with Options.BurstLength consecutive
	// mispredictions.
	BranchBurst
	// BranchMeasured uses equation (3) with the *measured* burst-size
	// distribution (Inputs.BranchBurstFactor) — the paper's §7
	// refinement #3: "collect secondary branch misprediction statistics
	// to better model bursty behavior".
	BranchMeasured
)

// DefaultRampEpsilon is the ramp-up convergence threshold of the model
// and of the transient figures. 0.05 reproduces the paper's Fig. 8
// numbers (drain 2.1, ramp-up 2.7 for α=1, β=0.5, ΔP=5, width 4).
const DefaultRampEpsilon = 0.05

// Options tune secondary model choices; the zero value selects the paper's
// defaults via (Options).withDefaults.
type Options struct {
	// BranchMode selects the branch penalty derivation (default:
	// BranchMidpoint, the paper's §5 step 2).
	BranchMode BranchPenaltyMode
	// BurstLength is n in equation (3), used by BranchBurst.
	BurstLength int
	// RampEpsilon ends ramp-up integration once the issue rate reaches
	// (1−RampEpsilon)·steady. Zero means DefaultRampEpsilon.
	RampEpsilon float64
	// SmoothSaturation replaces the hard clip min(width, curve) with a
	// harmonic soft-min — an ablation of the saturation approximation.
	SmoothSaturation bool
	// FetchBufferCoverage scales the fetch buffer's I-cache-miss hiding
	// (Machine.FetchBuffer): clustered misses strike before the buffer
	// has rebuilt, so only a fraction of misses — estimated from the
	// miss-gap distribution (stats.Summary.IsolatedICacheFrac) — benefit.
	// Zero means 1 (every miss fully covered).
	FetchBufferCoverage float64
}

func (o Options) withDefaults() Options {
	if o.RampEpsilon == 0 {
		o.RampEpsilon = DefaultRampEpsilon
	}
	if o.FetchBufferCoverage == 0 {
		o.FetchBufferCoverage = 1
	}
	if o.BurstLength == 0 {
		o.BurstLength = 2
	}
	return o
}

// Estimate is the model's full output for one workload on one machine.
type Estimate struct {
	// SteadyIPC is the sustainable background issue rate; SteadyCPI its
	// reciprocal (the CPI_steadystate term).
	SteadyIPC float64
	SteadyCPI float64

	// Drain and RampUp are the window-drain and ramp-up transient costs
	// in cycles, from discrete integration of the IW characteristic.
	Drain  float64
	RampUp float64

	// BranchPenalty, ICacheShortPenalty, ICacheLongPenalty, and
	// DCachePenalty are cycles per miss-event.
	BranchPenalty      float64
	ICacheShortPenalty float64
	ICacheLongPenalty  float64
	DCachePenalty      float64

	// TLBPenalty and TLBCPI extend equation (1) with the §7 TLB term
	// (zero without a configured TLB).
	TLBPenalty float64
	TLBCPI     float64

	// EffectiveWidth is the saturation level after functional-unit
	// limits; equals the issue width for an unbounded machine.
	EffectiveWidth float64

	// BranchCPI, ICacheShortCPI, ICacheLongCPI, DCacheCPI are the
	// per-instruction CPI adders of equation (1); CPI is their sum with
	// SteadyCPI (plus TLBCPI when modeled).
	BranchCPI      float64
	ICacheShortCPI float64
	ICacheLongCPI  float64
	DCacheCPI      float64
	CPI            float64
}

// IPC returns the modeled instructions per cycle.
func (e Estimate) IPC() float64 {
	if e.CPI == 0 {
		return 0
	}
	return 1 / e.CPI
}

// EffectiveWidth returns the machine's saturation level: the issue width,
// lowered by any functional-unit limit to min over limited classes of
// count/mix (a class consuming mix fraction m of the stream needs
// IPC·m ≤ count to sustain IPC on fully pipelined units).
func (m Machine) EffectiveWidth(in Inputs) float64 {
	eff := float64(m.Width)
	for c, n := range m.FUCounts {
		if n <= 0 || in.Mix[c] <= 0 {
			continue
		}
		if limit := float64(n) / in.Mix[c]; limit < eff {
			eff = limit
		}
	}
	return eff
}

// EffectiveLatency returns the average latency after the clustering
// bypass inflation (see Machine.Clusters); equal to Inputs.AvgLatency for
// a unified window.
func (m Machine) EffectiveLatency(in Inputs) float64 {
	if m.Clusters <= 1 {
		return in.AvgLatency
	}
	cross := float64(m.Clusters-1) / float64(m.Clusters)
	return in.AvgLatency + float64(m.BypassLatency)*cross
}

// Curve returns the latency-adjusted IW characteristic of the inputs on
// machine m: issue rate as a function of window occupancy, clipped at the
// effective issue width (or softly saturated under
// Options.SmoothSaturation).
func (m Machine) Curve(in Inputs, opts Options) IWCurve {
	return IWCurve{
		Alpha:  in.Alpha,
		Beta:   in.Beta,
		L:      m.EffectiveLatency(in),
		Width:  m.EffectiveWidth(in),
		Smooth: opts.SmoothSaturation,
	}
}

// SteadyStateIPC returns the sustainable issue rate with no miss-events:
// the IW curve evaluated at the full window, clipped at the issue width
// (§3: the unlimited-width power law until saturation, per Jouppi). A
// measured IW point, when provided, takes precedence over the fit (see
// Inputs.MeasuredSteadyIPC).
func (m Machine) SteadyStateIPC(in Inputs, opts Options) float64 {
	if in.MeasuredSteadyIPC > 0 {
		// The measured point was taken on a unified window; rescale by
		// the clustering latency inflation per Little's law.
		measured := in.MeasuredSteadyIPC * in.AvgLatency / m.EffectiveLatency(in)
		return math.Min(measured, m.EffectiveWidth(in))
	}
	return m.Curve(in, opts).Eval(float64(m.WindowSize))
}

// Estimate runs the complete first-order model: steady state plus the
// miss-event penalties of §4, composed per equation (1).
func (m Machine) Estimate(in Inputs, opts Options) (Estimate, error) {
	if err := m.Validate(); err != nil {
		return Estimate{}, err
	}
	if err := in.Validate(); err != nil {
		return Estimate{}, err
	}
	opts = opts.withDefaults()
	curve := m.Curve(in, opts)

	var e Estimate
	e.EffectiveWidth = m.EffectiveWidth(in)
	e.SteadyIPC = m.SteadyStateIPC(in, opts)
	if e.SteadyIPC <= 0 {
		return Estimate{}, fmt.Errorf("core: non-positive steady-state IPC for %q", in.Name)
	}
	e.SteadyCPI = 1 / e.SteadyIPC

	e.Drain = curve.Drain(float64(m.WindowSize), e.SteadyIPC)
	e.RampUp = curve.RampUp(e.SteadyIPC, opts.RampEpsilon)

	// Branch misprediction penalty, equations (2) and (3).
	isolated := e.Drain + float64(m.FrontEndDepth) + e.RampUp
	switch opts.BranchMode {
	case BranchIsolated:
		e.BranchPenalty = isolated
	case BranchBurst:
		e.BranchPenalty = float64(m.FrontEndDepth) + (e.Drain+e.RampUp)/float64(opts.BurstLength)
	case BranchMeasured:
		factor := in.BranchBurstFactor
		if factor == 0 {
			factor = 1
		}
		e.BranchPenalty = float64(m.FrontEndDepth) + (e.Drain+e.RampUp)*factor
	default: // BranchMidpoint, the paper's §5 step 2.
		e.BranchPenalty = (isolated + float64(m.FrontEndDepth)) / 2
	}

	// I-cache miss penalty, equation (4): ΔI + ramp_up − win_drain. The
	// offsetting terms make it ≈ the miss delay and independent of ΔP.
	// A fetch buffer keeps the window fed for FetchBuffer/width extra
	// cycles, hiding that much of the delay for the misses that find it
	// rebuilt (§7 extension #2).
	bufferHide := float64(m.FetchBuffer) / float64(m.Width) * opts.FetchBufferCoverage
	icacheAdj := e.RampUp - e.Drain - bufferHide
	e.ICacheShortPenalty = math.Max(0, float64(m.ShortMissLatency)+icacheAdj)
	e.ICacheLongPenalty = math.Max(0, float64(m.LongMissLatency)+icacheAdj)

	// Long data miss penalty, equation (8): the isolated penalty is ≈ ΔD
	// (§4.3: the missing load is old when it issues, so rob_fill ≈ 0 and
	// drain/ramp offset), scaled by the overlap factor Σ f(i)/i.
	e.DCachePenalty = float64(m.LongMissLatency) * in.OverlapFactor

	// TLB misses act like long data misses (§7 extension #4).
	if m.TLBMissLatency > 0 && in.TLBMissesPerInstr > 0 {
		overlap := in.TLBOverlapFactor
		if overlap == 0 {
			overlap = 1
		}
		e.TLBPenalty = float64(m.TLBMissLatency) * overlap
		e.TLBCPI = in.TLBMissesPerInstr * e.TLBPenalty
	}

	e.BranchCPI = in.MispredictsPerInstr * e.BranchPenalty
	e.ICacheShortCPI = in.ICacheShortPerInstr * e.ICacheShortPenalty
	e.ICacheLongCPI = in.ICacheLongPerInstr * e.ICacheLongPenalty
	e.DCacheCPI = in.DCacheLongPerInstr * e.DCachePenalty
	e.CPI = e.SteadyCPI + e.BranchCPI + e.ICacheShortCPI + e.ICacheLongCPI + e.DCacheCPI + e.TLBCPI
	return e, nil
}

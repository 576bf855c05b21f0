package core

import (
	"fmt"
	"math"
)

// This file implements the §6 trend studies. Both use the model with a
// generic square-law workload (α=1, β=0.5, unit latency — the SPECint
// average once latencies are folded in, per the paper's Fig. 8 setup) and
// branch mispredictions as the only miss-event: one instruction in five is
// a branch and 5% of branches are mispredicted.

// TrendWorkload returns the generic workload of the trend studies.
func TrendWorkload() Inputs {
	return Inputs{
		Name:                "square-law",
		Alpha:               1,
		Beta:                0.5,
		AvgLatency:          1,
		MispredictsPerInstr: 0.2 * 0.05, // 1-in-5 branches, 5% mispredicted
		OverlapFactor:       1,
	}
}

// DepthPoint is one point of the §6.1 pipeline-depth study.
type DepthPoint struct {
	// Depth is the front-end pipeline depth in stages.
	Depth int
	// IPC is the modeled instructions per cycle at that depth.
	IPC float64
	// BIPS is absolute performance in billions of instructions per
	// second, using the paper's circuit assumptions: the front end has
	// 8200 ps of total logic delay plus 90 ps of flip-flop overhead per
	// stage, so cycle time = 8200/Depth + 90 ps.
	BIPS float64
}

// Circuit-delay assumptions of §6.1 (taken from Sprangle & Carmean).
const (
	// TotalFrontEndDelayPS is the un-pipelined front-end logic delay.
	TotalFrontEndDelayPS = 8200.0
	// FlipFlopOverheadPS is the per-stage latch overhead.
	FlipFlopOverheadPS = 90.0
)

// PipelineDepthStudy computes IPC and BIPS as a function of front-end
// depth for the given issue width (the paper's Fig. 17). The window is
// sized large enough to saturate the issue width so that steady-state
// performance equals the width, per the paper's setup. Branch
// mispredictions use the isolated penalty (drain + ΔP + ramp-up), which is
// the regime that limits deep pipelines.
func PipelineDepthStudy(width int, depths []int) ([]DepthPoint, error) {
	if width < 1 {
		return nil, fmt.Errorf("core: width %d < 1", width)
	}
	in := TrendWorkload()
	pts := make([]DepthPoint, 0, len(depths))
	for _, d := range depths {
		if d < 1 {
			return nil, fmt.Errorf("core: depth %d < 1", d)
		}
		m := Machine{
			Width:            width,
			FrontEndDepth:    d,
			WindowSize:       saturatingWindow(width, in),
			ROBSize:          4 * saturatingWindow(width, in),
			ShortMissLatency: 8,
			LongMissLatency:  200,
		}
		est, err := m.Estimate(in, Options{BranchMode: BranchIsolated})
		if err != nil {
			return nil, err
		}
		ipc := est.IPC()
		cycPS := TotalFrontEndDelayPS/float64(d) + FlipFlopOverheadPS
		pts = append(pts, DepthPoint{
			Depth: d,
			IPC:   ipc,
			// instructions/ps × 1000 = instructions/ns = BIPS.
			BIPS: ipc / cycPS * 1000,
		})
	}
	return pts, nil
}

// OptimalDepth returns the depth with the highest BIPS among pts.
func OptimalDepth(pts []DepthPoint) DepthPoint {
	best := DepthPoint{BIPS: math.Inf(-1)}
	for _, p := range pts {
		if p.BIPS > best.BIPS {
			best = p
		}
	}
	return best
}

// saturatingWindow returns a window size at which the latency-adjusted
// power law sustains the full issue width, with headroom.
func saturatingWindow(width int, in Inputs) int {
	w := math.Pow(float64(width)*in.AvgLatency/in.Alpha, 1/in.Beta)
	return int(math.Ceil(w)) * 2
}

// WidthRequirement is one point of the §6.2 issue-width study: to spend
// FractionClose of the time issuing within 12.5% of the machine width, the
// program must average InstrBetweenMispredicts useful instructions between
// branch mispredictions.
type WidthRequirement struct {
	Width                    int
	FractionClose            float64
	InstrBetweenMispredicts  float64
	CyclesToReachCloseIssue  float64
	InstrConsumedInTransient float64
}

// IssueWidthStudy computes, for each requested fraction of time spent
// "close" to the implemented issue width (within closeMargin, the paper
// uses 12.5%), the required number of instructions between branch
// mispredictions (the paper's Fig. 18). The transient between two
// mispredictions is ΔP cycles of refill plus ramp-up along the square-law
// IW characteristic; time beyond the transient issues at full width.
func IssueWidthStudy(width, frontEndDepth int, fractions []float64) ([]WidthRequirement, error) {
	if width < 1 {
		return nil, fmt.Errorf("core: width %d < 1", width)
	}
	if frontEndDepth < 1 {
		return nil, fmt.Errorf("core: front-end depth %d < 1", frontEndDepth)
	}
	in := TrendWorkload()
	curve := IWCurve{Alpha: in.Alpha, Beta: in.Beta, L: in.AvgLatency, Width: float64(width)}
	const closeMargin = 0.125
	target := (1 - closeMargin) * float64(width)

	// Integrate the post-misprediction ramp until issue is "close";
	// count the cycles and instructions consumed getting there.
	transientCycles := float64(frontEndDepth)
	transientInstrs := 0.0
	w := 0.0
	for transientCycles < maxTransientCycles {
		w += float64(width)
		i := curve.Eval(w)
		w -= i
		transientCycles++
		transientInstrs += i
		if i >= target {
			break
		}
	}

	reqs := make([]WidthRequirement, 0, len(fractions))
	for _, f := range fractions {
		if f <= 0 || f >= 1 {
			return nil, fmt.Errorf("core: fraction %v outside (0,1)", f)
		}
		// closeCycles/(closeCycles+transientCycles) = f
		closeCycles := f * transientCycles / (1 - f)
		instr := transientInstrs + closeCycles*float64(width)
		reqs = append(reqs, WidthRequirement{
			Width:                    width,
			FractionClose:            f,
			InstrBetweenMispredicts:  instr,
			CyclesToReachCloseIssue:  transientCycles,
			InstrConsumedInTransient: transientInstrs,
		})
	}
	return reqs, nil
}

// OptimalDepthClosedForm returns the analytically optimal front-end depth
// for the trend workload, from minimizing
//
//	g(n) = CPI(n) · cycle(n) = (c0 + m·(n + K)) · (T/n + o)
//
// where c0 = 1/width is the steady-state CPI, m the mispredictions per
// instruction, K the depth-independent part of the branch penalty
// (drain + ramp-up), T the un-pipelined front-end delay, and o the
// per-stage latch overhead. Setting dg/dn = 0 gives
//
//	n_opt = sqrt( T·(c0 + m·K) / (m·o) )
//
// — the square-root law of Hartstein & Puzak, with this model's K. The
// numeric sweep (PipelineDepthStudy + OptimalDepth) agrees with this
// closed form to within a stage or two.
func OptimalDepthClosedForm(width int) (float64, error) {
	if width < 1 {
		return 0, fmt.Errorf("core: width %d < 1", width)
	}
	in := TrendWorkload()
	curve := IWCurve{Alpha: in.Alpha, Beta: in.Beta, L: in.AvgLatency, Width: float64(width)}
	steady := float64(width)
	k := curve.Drain(float64(saturatingWindow(width, in)), steady) + curve.RampUp(steady, DefaultRampEpsilon)
	c0 := 1 / steady
	m := in.MispredictsPerInstr
	return math.Sqrt(TotalFrontEndDelayPS * (c0 + m*k) / (m * FlipFlopOverheadPS)), nil
}

package experiments

import (
	"fmt"
	"strings"

	"fomodel/internal/core"
)

// squareLawCurve returns the paper's generic transient curve: α=1, β=0.5,
// unit latency — "the average for SpecINT2000 benchmarks once non-unit
// latencies are accounted for" — at the given width.
func squareLawCurve(width int) core.IWCurve {
	return core.IWCurve{Alpha: 1, Beta: 0.5, L: 1, Width: float64(width)}
}

// Figure8Result is the paper's Fig. 8: the per-cycle transient of an
// isolated branch misprediction for the square-law curve, with the three
// penalty components.
type Figure8Result struct {
	Points  []core.TransientPoint
	Drain   float64
	RampUp  float64
	Fill    float64
	Total   float64
	Machine core.Machine
}

// Figure8 computes the canonical branch-misprediction transient (α=1,
// β=0.5, five front-end stages, width 4).
func Figure8(s *Suite) (*Figure8Result, error) {
	m := s.Machine
	curve := squareLawCurve(m.Width)
	steady := curve.Eval(float64(m.WindowSize))
	res := &Figure8Result{
		Points:  curve.BranchTransient(float64(m.WindowSize), m.FrontEndDepth, 3, core.DefaultRampEpsilon),
		Drain:   curve.Drain(float64(m.WindowSize), steady),
		RampUp:  curve.RampUp(steady, core.DefaultRampEpsilon),
		Fill:    float64(m.FrontEndDepth),
		Machine: m,
	}
	res.Total = res.Drain + res.Fill + res.RampUp
	return res, nil
}

// Render prints the penalty components and the per-cycle curve.
func (r *Figure8Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 8: isolated branch misprediction transient (alpha=1, beta=0.5, dP=%d, width=%d)\n",
		r.Machine.FrontEndDepth, r.Machine.Width)
	fmt.Fprintf(&sb, "drain: %.1f cycles (paper 2.1)  ramp-up: %.1f (paper 2.7)  front-end: %.1f (paper 4.9)  total: %.1f (paper 9.7)\n",
		r.Drain, r.RampUp, r.Fill, r.Total)
	sb.WriteString(renderTransient(r.Points))
	return sb.String()
}

// Figure10Result is the instruction-cache miss transient of the paper's
// Fig. 10.
type Figure10Result struct {
	Points    []core.TransientPoint
	MissDelay int
	Machine   core.Machine
}

// Figure10 computes the canonical I-cache miss transient for the baseline
// machine and an L2-hit miss delay.
func Figure10(s *Suite) (*Figure10Result, error) {
	m := s.Machine
	curve := squareLawCurve(m.Width)
	// Use a memory-scale delay so the drain and idle phases are visible,
	// as drawn in the paper's schematic.
	delay := 4 * m.ShortMissLatency
	return &Figure10Result{
		Points:    curve.ICacheTransient(float64(m.WindowSize), m.FrontEndDepth, delay, 3, core.DefaultRampEpsilon),
		MissDelay: delay,
		Machine:   m,
	}, nil
}

// Render prints the transient curve.
func (r *Figure10Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 10: instruction cache miss transient (miss delay %d cycles)\n", r.MissDelay)
	sb.WriteString(renderTransient(r.Points))
	return sb.String()
}

// Figure12Result is the isolated long data-cache miss transient of the
// paper's Fig. 12.
type Figure12Result struct {
	Points    []core.TransientPoint
	MissDelay int
	Machine   core.Machine
}

// Figure12 computes the canonical long data miss transient: the ROB fills
// behind the blocked load, dispatch stalls, and issue resumes when the
// data returns.
func Figure12(s *Suite) (*Figure12Result, error) {
	m := s.Machine
	curve := squareLawCurve(m.Width)
	// §4.3: when a load misses there are ~9 instructions ahead of it; the
	// ROB is otherwise at its steady occupancy.
	occupancy := m.WindowSize / 2
	return &Figure12Result{
		Points: curve.DCacheTransient(float64(m.WindowSize), m.ROBSize, occupancy,
			m.LongMissLatency, 3, core.DefaultRampEpsilon),
		MissDelay: m.LongMissLatency,
		Machine:   m,
	}, nil
}

// Render prints the transient curve.
func (r *Figure12Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 12: isolated long data cache miss transient (dD=%d, rob=%d)\n",
		r.MissDelay, r.Machine.ROBSize)
	sb.WriteString(renderTransient(r.Points))
	return sb.String()
}

// renderTransient prints a compact per-cycle issue trace, eliding long
// constant stretches.
func renderTransient(pts []core.TransientPoint) string {
	var sb strings.Builder
	var lastIssue float64 = -1
	elided := 0
	flush := func() {
		if elided > 0 {
			fmt.Fprintf(&sb, "  ... %d more cycles at issue=%.2f\n", elided, lastIssue)
			elided = 0
		}
	}
	for _, p := range pts {
		if p.Issue == lastIssue {
			elided++
			continue
		}
		flush()
		fmt.Fprintf(&sb, "  cycle %3d  %-7s issue=%.2f window=%.1f\n", p.Cycle, p.Phase, p.Issue, p.Window)
		lastIssue = p.Issue
	}
	flush()
	return sb.String()
}

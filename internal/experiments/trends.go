package experiments

import (
	"fmt"
	"strings"

	"fomodel/internal/core"
)

// Figure17Result is the §6.1 pipeline-depth study: IPC (17a) and BIPS
// (17b) versus front-end depth for several issue widths.
type Figure17Result struct {
	Widths  []int
	Depths  []int
	IPC     map[int][]float64 // width → IPC per depth
	BIPS    map[int][]float64
	Optimal map[int]core.DepthPoint
}

// Figure17 runs the pipeline-depth trend study (widths 2, 3, 4, 8;
// depths 1–100, the paper's x-axis).
func Figure17(s *Suite) (*Figure17Result, error) {
	res := &Figure17Result{
		Widths:  []int{2, 3, 4, 8},
		IPC:     make(map[int][]float64),
		BIPS:    make(map[int][]float64),
		Optimal: make(map[int]core.DepthPoint),
	}
	for d := 1; d <= 100; d++ {
		res.Depths = append(res.Depths, d)
	}
	for _, width := range res.Widths {
		pts, err := core.PipelineDepthStudy(width, res.Depths)
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			res.IPC[width] = append(res.IPC[width], p.IPC)
			res.BIPS[width] = append(res.BIPS[width], p.BIPS)
		}
		res.Optimal[width] = core.OptimalDepth(pts)
	}
	return res, nil
}

// tab builds the result table.
func (r *Figure17Result) tab() *table {
	t := &table{
		title:  "Figure 17: IPC (a) and BIPS (b) vs front-end pipeline depth",
		header: []string{"depth"},
	}
	for _, w := range r.Widths {
		t.header = append(t.header, fmt.Sprintf("IPC w=%d", w), fmt.Sprintf("BIPS w=%d", w))
	}
	for i, d := range r.Depths {
		if d != 1 && d%10 != 0 {
			continue
		}
		cells := []string{fmt.Sprintf("%d", d)}
		for _, w := range r.Widths {
			cells = append(cells, f2(r.IPC[w][i]), f2(r.BIPS[w][i]))
		}
		t.addRow(cells...)
	}
	var opt []string
	for _, w := range r.Widths {
		opt = append(opt, fmt.Sprintf("w=%d: %d stages (%.2f BIPS)", w, r.Optimal[w].Depth, r.Optimal[w].BIPS))
	}
	t.addNote("optimal depths: %s", strings.Join(opt, ", "))
	t.addNote("paper: optimum ≈ 55 stages at width 3, shifting shallower as width grows")
	return t
}

// Figure18Result is the §6.2 issue-width study: the instructions between
// mispredictions required to spend a given fraction of time within 12.5%%
// of the issue width.
type Figure18Result struct {
	Widths    []int
	Fractions []float64
	// Required[width] holds one entry per fraction.
	Required map[int][]core.WidthRequirement
	// FrontEndDepth is the assumed ΔP.
	FrontEndDepth int
}

// Figure18 runs the issue-width requirement study (widths 4, 8, 16;
// fractions 10–50%, the paper's x-axis).
func Figure18(s *Suite) (*Figure18Result, error) {
	res := &Figure18Result{
		Widths:        []int{4, 8, 16},
		Fractions:     []float64{0.10, 0.20, 0.30, 0.40, 0.50},
		Required:      make(map[int][]core.WidthRequirement),
		FrontEndDepth: s.Machine.FrontEndDepth,
	}
	for _, w := range res.Widths {
		reqs, err := core.IssueWidthStudy(w, res.FrontEndDepth, res.Fractions)
		if err != nil {
			return nil, err
		}
		res.Required[w] = reqs
	}
	return res, nil
}

// tab builds the result table.
func (r *Figure18Result) tab() *table {
	t := &table{
		title:  "Figure 18: instructions between mispredictions needed to stay within 12.5% of issue width",
		header: []string{"% time close"},
	}
	for _, w := range r.Widths {
		t.header = append(t.header, fmt.Sprintf("width %d", w))
	}
	for i, f := range r.Fractions {
		cells := []string{pct(f)}
		for _, w := range r.Widths {
			cells = append(cells, fmt.Sprintf("%.0f", r.Required[w][i].InstrBetweenMispredicts))
		}
		t.addRow(cells...)
	}
	if len(r.Widths) >= 2 {
		mid := len(r.Fractions) / 2
		ratio := r.Required[r.Widths[1]][mid].InstrBetweenMispredicts /
			r.Required[r.Widths[0]][mid].InstrBetweenMispredicts
		t.addNote("doubling the width multiplies the requirement by ≈%.1f (paper: ~4×, i.e. quadratic)", ratio)
	}
	return t
}

// Figure19Result is the per-cycle issue rate between two mispredictions
// (the paper's Fig. 19).
type Figure19Result struct {
	Widths []int
	// Traces maps width to the per-cycle issue rates.
	Traces map[int][]core.TransientPoint
	// InstrBudget is the assumed useful-instruction distance between the
	// mispredictions (the paper's average: 1-in-5 branches at 5%
	// misprediction → 100 instructions).
	InstrBudget   float64
	FrontEndDepth int
}

// Figure19 computes the ramp traces for widths 2, 3, 4, 8.
func Figure19(s *Suite) (*Figure19Result, error) {
	res := &Figure19Result{
		Widths:        []int{2, 3, 4, 8},
		Traces:        make(map[int][]core.TransientPoint),
		InstrBudget:   100,
		FrontEndDepth: s.Machine.FrontEndDepth,
	}
	for _, w := range res.Widths {
		curve := squareLawCurve(w)
		res.Traces[w] = curve.RampIssueTrace(res.FrontEndDepth, res.InstrBudget)
	}
	return res, nil
}

// Render prints the issue-rate series and each width's peak.
func (r *Figure19Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 19: per-cycle issue rate between two mispredictions (%g instructions apart, dP=%d)\n",
		r.InstrBudget, r.FrontEndDepth)
	for _, w := range r.Widths {
		peak := 0.0
		for _, p := range r.Traces[w] {
			if p.Issue > peak {
				peak = p.Issue
			}
		}
		fmt.Fprintf(&sb, "width %d: %d cycles, peak issue %.2f\n", w, len(r.Traces[w]), peak)
	}
	sb.WriteString("paper: with width 4 the IPC barely reaches 4; with width 8 it barely exceeds 6\n")
	return sb.String()
}

package experiments

import (
	"fomodel/internal/core"
)

// RefinementRow compares branch-penalty derivations for one benchmark
// against the simulator.
type RefinementRow struct {
	Name        string
	SimCPI      float64
	MidpointCPI float64
	MeasuredCPI float64
	MidpointErr float64
	MeasuredErr float64
	// BurstFactor is the measured Σ f_misp(i)/i.
	BurstFactor float64
}

// RefinementResult evaluates the paper's §7 refinement #3 — modeling
// misprediction bursts from measured secondary statistics — against the
// §5 midpoint heuristic.
type RefinementResult struct {
	Rows            []RefinementRow
	MeanMidpointErr float64
	MeanMeasuredErr float64
}

// BranchBurstRefinement runs the comparison over all benchmarks, fanning
// them out across the suite's worker pool.
func BranchBurstRefinement(s *Suite) (*RefinementResult, error) {
	rows, err := MapWorkloads(s, s.Names, 1, func(w *Workload, _ int) (RefinementRow, error) {
		var zero RefinementRow
		c, err := s.Compare(w, nil, core.Options{BranchMode: core.BranchMidpoint})
		if err != nil {
			return zero, err
		}
		_, meas, err := c.Analysis.Estimate(s.Machine, core.Options{BranchMode: core.BranchMeasured})
		if err != nil {
			return zero, err
		}
		row := RefinementRow{
			Name:        w.Name,
			SimCPI:      c.Sim.CPI(),
			MidpointCPI: c.Estimate.CPI,
			MeasuredCPI: meas.CPI,
			MidpointErr: c.Err(),
			BurstFactor: w.Inputs.BranchBurstFactor,
		}
		row.MeasuredErr = relErr(row.MeasuredCPI, row.SimCPI)
		return row, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return &RefinementResult{
		Rows:            rows,
		MeanMidpointErr: meanAbs(rows, func(r RefinementRow) float64 { return r.MidpointErr }),
		MeanMeasuredErr: meanAbs(rows, func(r RefinementRow) float64 { return r.MeasuredErr }),
	}, nil
}

// tab builds the result table.
func (r *RefinementResult) tab() *table {
	t := &table{
		title:  "Refinement (§7 #3): measured misprediction bursts vs the §5 midpoint heuristic",
		header: []string{"bench", "sim CPI", "midpoint", "err", "measured-burst", "err", "burst factor"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Name, f3(row.SimCPI),
			f3(row.MidpointCPI), pct(row.MidpointErr),
			f3(row.MeasuredCPI), pct(row.MeasuredErr),
			f2(row.BurstFactor))
	}
	t.addNote("mean |err|: midpoint %s, measured bursts %s", pct(r.MeanMidpointErr), pct(r.MeanMeasuredErr))
	return t
}

package experiments

import (
	"fomodel/internal/statsim"
)

// StatSimRow compares, for one benchmark, the reference detailed
// simulation against both estimation methodologies: the first-order model
// and statistical simulation.
type StatSimRow struct {
	Name string
	// RefCPI is the detailed simulation of the real trace.
	RefCPI float64
	// ModelCPI is the first-order model.
	ModelCPI float64
	// StatSimCPI is the timing simulation of a synthesized statistical
	// trace.
	StatSimCPI float64
	ModelErr   float64
	StatSimErr float64
}

// StatSimResult tests the paper's related-work claim that the first-order
// model "performs statistical simulation, without the simulation, and
// overall accuracy is similar".
type StatSimResult struct {
	Rows           []StatSimRow
	MeanModelErr   float64
	MeanStatSimErr float64
}

// StatSimStudy runs both methodologies across all benchmarks, fanning the
// benchmarks out across the suite's worker pool.
func StatSimStudy(s *Suite) (*StatSimResult, error) {
	rows, err := MapWorkloads(s, s.Names, 1, func(w *Workload, _ int) (StatSimRow, error) {
		var zero StatSimRow
		c, err := s.Compare(w, nil, modelOptions())
		if err != nil {
			return zero, err
		}
		ss, _, err := statsim.Simulate(w.Trace, s.Sim, s.Seed+0x5757)
		if err != nil {
			return zero, err
		}
		row := StatSimRow{
			Name:       w.Name,
			RefCPI:     c.Sim.CPI(),
			ModelCPI:   c.Estimate.CPI,
			StatSimCPI: ss.CPI(),
			ModelErr:   c.Err(),
		}
		row.StatSimErr = relErr(row.StatSimCPI, row.RefCPI)
		return row, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return &StatSimResult{
		Rows:           rows,
		MeanModelErr:   meanAbs(rows, func(r StatSimRow) float64 { return r.ModelErr }),
		MeanStatSimErr: meanAbs(rows, func(r StatSimRow) float64 { return r.StatSimErr }),
	}, nil
}

// tab builds the result table.
func (r *StatSimResult) tab() *table {
	t := &table{
		title:  "Statistical simulation vs first-order model (reference: detailed simulation)",
		header: []string{"bench", "reference", "model", "err", "stat-sim", "err"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Name, f3(row.RefCPI),
			f3(row.ModelCPI), pct(row.ModelErr),
			f3(row.StatSimCPI), pct(row.StatSimErr))
	}
	t.addNote("mean |err|: model %s, statistical simulation %s — the paper's claim is that the",
		pct(r.MeanModelErr), pct(r.MeanStatSimErr))
	t.addNote("model achieves statistical-simulation accuracy without running any simulation")
	return t
}

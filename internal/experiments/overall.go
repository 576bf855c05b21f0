package experiments

import (
	"fomodel/internal/core"
)

// modelOptions returns the paper's §5 model choices.
func modelOptions() core.Options { return core.Options{} }

// Figure15Row is one benchmark of the paper's Fig. 15: overall CPI from
// the first-order model versus detailed simulation.
type Figure15Row struct {
	Name     string
	ModelCPI float64
	SimCPI   float64
	// Err is the relative CPI error (model vs simulation).
	Err float64
	// Estimate carries the model's full decomposition for Fig. 16.
	Estimate core.Estimate
}

// Figure15Result is the full Fig. 15 dataset.
type Figure15Result struct {
	Rows []Figure15Row
	// MeanAbsErr is the average |error| (the paper reports 5.8%); MaxAbs
	// the worst benchmark (13% in the paper).
	MeanAbsErr float64
	MaxAbsErr  float64
	WorstBench string
}

// Figure15 evaluates the complete model against the detailed simulator
// following the paper's §5 procedure. The benchmarks fan out across the
// suite's worker pool.
func Figure15(s *Suite) (*Figure15Result, error) {
	rows, err := MapWorkloads(s, func(w *Workload) (Figure15Row, error) {
		c, err := s.Compare(w, nil, modelOptions())
		if err != nil {
			return Figure15Row{}, err
		}
		return Figure15Row{
			Name:     w.Name,
			ModelCPI: c.Estimate.CPI,
			SimCPI:   c.Sim.CPI(),
			Err:      c.Err(),
			Estimate: c.Estimate,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Figure15Result{Rows: rows, MeanAbsErr: meanAbs(rows, func(r Figure15Row) float64 { return r.Err })}
	for _, r := range res.Rows {
		if e := abs(r.Err); e > res.MaxAbsErr {
			res.MaxAbsErr = e
			res.WorstBench = r.Name
		}
	}
	return res, nil
}

// tab builds the result table.
func (r *Figure15Result) tab() *table {
	t := &table{
		title:  "Figure 15: first-order model vs detailed simulation (CPI)",
		header: []string{"bench", "model", "simulation", "err"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Name, f3(row.ModelCPI), f3(row.SimCPI), pct(row.Err))
	}
	t.addNote("mean |err| %s (paper 5.8%%), worst %s on %s (paper 13%% on mcf)",
		pct(r.MeanAbsErr), pct(r.MaxAbsErr), r.WorstBench)
	return t
}

// Render prints the table as aligned text.
func (r *Figure15Result) Render() string { return r.tab().String() }

// CSV renders the table as comma-separated values.
func (r *Figure15Result) CSV() string { return r.tab().CSV() }

// Figure16Result is the paper's Fig. 16 "stack model": the CPI
// contribution of each miss-event category per benchmark. It reuses the
// Fig. 15 model estimates.
type Figure16Result struct {
	Rows []Figure15Row
}

// Figure16 builds the CPI stacks.
func Figure16(s *Suite) (*Figure16Result, error) {
	f15, err := Figure15(s)
	if err != nil {
		return nil, err
	}
	return &Figure16Result{Rows: f15.Rows}, nil
}

// tab builds the result table.
func (r *Figure16Result) tab() *table {
	t := &table{
		title:  "Figure 16: CPI stack (model components)",
		header: []string{"bench", "ideal", "L1 I$", "L2 I$", "L2 D$", "branch", "total", "D$ share"},
	}
	for _, row := range r.Rows {
		e := row.Estimate
		share := 0.0
		if e.CPI > 0 {
			share = e.DCacheCPI / e.CPI
		}
		t.addRow(row.Name, f3(e.SteadyCPI), f3(e.ICacheShortCPI), f3(e.ICacheLongCPI),
			f3(e.DCacheCPI), f3(e.BranchCPI), f3(e.CPI), pct(share))
	}
	t.addNote("paper: long data misses are ~70%% of mcf's CPI and ~60%% of twolf's")
	return t
}

// Render prints the table as aligned text.
func (r *Figure16Result) Render() string { return r.tab().String() }

// CSV renders the table as comma-separated values.
func (r *Figure16Result) CSV() string { return r.tab().CSV() }

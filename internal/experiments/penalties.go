package experiments

import (
	"fmt"

	"fomodel/internal/core"
	"fomodel/internal/uarch"
)

// Figure9Row is one benchmark of the paper's Fig. 9: the simulated penalty
// per branch misprediction for 5- and 9-stage front ends, next to the
// model's isolated-penalty prediction.
type Figure9Row struct {
	Name string
	// SimPenalty5 / SimPenalty9 are measured penalties in cycles per
	// misprediction at front-end depths 5 and 9 (ideal caches, real
	// gshare, differenced against the ideal-predictor runs).
	SimPenalty5 float64
	SimPenalty9 float64
	// ModelIsolated5 / ModelIsolated9 are the model's equation (2)
	// penalties at the same depths (Estimate.BranchPenalty under
	// core.BranchIsolated).
	ModelIsolated5 float64
	ModelIsolated9 float64
}

// Figure9Result is the full Fig. 9 dataset.
type Figure9Result struct {
	Rows []Figure9Row
}

// Figure9 measures the branch misprediction penalty per benchmark,
// fanning the benchmarks out across the suite's worker pool.
func Figure9(s *Suite) (*Figure9Result, error) {
	rows, err := MapWorkloads(s, func(w *Workload) (Figure9Row, error) {
		row := Figure9Row{Name: w.Name}
		for _, depth := range []int{5, 9} {
			iso, err := s.Isolate(w, func(c *uarch.Config) { c.FrontEndDepth = depth },
				core.Options{BranchMode: core.BranchIsolated}, EventBranch)
			if err != nil {
				return row, err
			}
			penalty, isolated := iso.PerEvent(EventBranch), iso.Only[EventBranch].Estimate.BranchPenalty
			if depth == 5 {
				row.SimPenalty5, row.ModelIsolated5 = penalty, isolated
			} else {
				row.SimPenalty9, row.ModelIsolated9 = penalty, isolated
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Figure9Result{Rows: rows}, nil
}

// tab builds the result table.
func (r *Figure9Result) tab() *table {
	t := &table{
		title:  "Figure 9: penalty per branch misprediction (cycles)",
		header: []string{"bench", "sim dP=5", "model dP=5", "sim dP=9", "model dP=9"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Name, f2(row.SimPenalty5), f2(row.ModelIsolated5),
			f2(row.SimPenalty9), f2(row.ModelIsolated9))
	}
	t.addNote("paper: penalties exceed the front-end depth — typically 6.4–10 cycles at dP=5 (vpr 14.7)")
	return t
}

// Render prints the table as aligned text.
func (r *Figure9Result) Render() string { return r.tab().String() }

// CSV renders the table as comma-separated values.
func (r *Figure9Result) CSV() string { return r.tab().CSV() }

// Figure11Row is one benchmark of the paper's Fig. 11: the I-cache miss
// penalty is ≈ the miss delay and independent of front-end depth.
type Figure11Row struct {
	Name string
	// Misses5/Misses9 are charged I-cache stalls in each configuration.
	Misses5, Misses9 uint64
	// SimPenalty5 / SimPenalty9 are measured cycles per I-cache miss.
	SimPenalty5 float64
	SimPenalty9 float64
}

// Figure11Result is the full Fig. 11 dataset.
type Figure11Result struct {
	Rows []Figure11Row
	// MissDelay is the configured L2 access delay (the paper's 8).
	MissDelay int
}

// Figure11 measures the I-cache miss penalty per benchmark at front-end
// depths 5 and 9 (real I-cache, ideal D-cache and predictor).
func Figure11(s *Suite) (*Figure11Result, error) {
	rows, err := MapWorkloads(s, func(w *Workload) (Figure11Row, error) {
		row := Figure11Row{Name: w.Name}
		for _, depth := range []int{5, 9} {
			iso, err := s.Isolate(w, func(c *uarch.Config) { c.FrontEndDepth = depth }, modelOptions(), EventICache)
			if err != nil {
				return row, err
			}
			penalty, misses := iso.PerEvent(EventICache), iso.Count(EventICache)
			if depth == 5 {
				row.SimPenalty5, row.Misses5 = penalty, misses
			} else {
				row.SimPenalty9, row.Misses9 = penalty, misses
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Figure11Result{Rows: rows, MissDelay: s.Sim.Hierarchy.ShortMissLatency}, nil
}

// tab builds the result table.
func (r *Figure11Result) tab() *table {
	t := &table{
		title:  fmt.Sprintf("Figure 11: I-cache miss penalty (cycles; miss delay %d)", r.MissDelay),
		header: []string{"bench", "misses", "sim dP=5", "sim dP=9"},
	}
	for _, row := range r.Rows {
		note := ""
		if row.Misses5 < 100 {
			note = " (few misses)"
		}
		t.addRow(row.Name+note, fmt.Sprintf("%d", row.Misses5), f2(row.SimPenalty5), f2(row.SimPenalty9))
	}
	t.addNote("paper: penalty ≈ the L2 miss delay and independent of the front-end depth")
	return t
}

// Render prints the table as aligned text.
func (r *Figure11Result) Render() string { return r.tab().String() }

// CSV renders the table as comma-separated values.
func (r *Figure11Result) CSV() string { return r.tab().CSV() }

// Figure14Row is one benchmark of the paper's Fig. 14: penalty per long
// data-cache miss, simulation vs model (equation 8).
type Figure14Row struct {
	Name string
	// SimPenalty is the measured penalty per long miss (real D-cache,
	// ideal predictor and I-cache, differenced against all-ideal).
	SimPenalty float64
	// ModelPenalty is ΔD × Σ f_LDM(i)/i (Estimate.DCachePenalty).
	ModelPenalty float64
	// IsolatedPenalty is the measured penalty when long misses are
	// artificially serialized (the paper's isolation experiment).
	IsolatedPenalty float64
	LongMisses      uint64
}

// Figure14Result is the full Fig. 14 dataset.
type Figure14Result struct {
	Rows []Figure14Row
}

// Figure14 measures the long data miss penalty per benchmark, fanning the
// benchmarks out across the suite's worker pool.
func Figure14(s *Suite) (*Figure14Result, error) {
	rows, err := MapWorkloads(s, func(w *Workload) (Figure14Row, error) {
		var zero Figure14Row
		iso, err := s.Isolate(w, nil, modelOptions(), EventDCache)
		if err != nil {
			return zero, err
		}
		serial, err := s.Simulate(w, func(c *uarch.Config) {
			EventDCache.only(c)
			c.SerializeLongMisses = true
		})
		if err != nil {
			return zero, err
		}
		return Figure14Row{
			Name:            w.Name,
			SimPenalty:      iso.PerEvent(EventDCache),
			ModelPenalty:    iso.Only[EventDCache].Estimate.DCachePenalty,
			IsolatedPenalty: iso.PerEventIn(EventDCache, serial),
			LongMisses:      iso.Count(EventDCache),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Figure14Result{Rows: rows}, nil
}

// tab builds the result table.
func (r *Figure14Result) tab() *table {
	t := &table{
		title:  "Figure 14: penalty per long data cache miss (cycles)",
		header: []string{"bench", "long misses", "sim", "model (eq.8)", "isolated sim"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Name, fmt.Sprintf("%d", row.LongMisses),
			f2(row.SimPenalty), f2(row.ModelPenalty), f2(row.IsolatedPenalty))
	}
	t.addNote("paper: the model is reasonably close; data-miss overlap is the weakest link")
	return t
}

// Render prints the table as aligned text.
func (r *Figure14Result) Render() string { return r.tab().String() }

// CSV renders the table as comma-separated values.
func (r *Figure14Result) CSV() string { return r.tab().CSV() }

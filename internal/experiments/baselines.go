package experiments

import (
	"fomodel/internal/iw"
	"fomodel/internal/uarch"
)

// InOrderRow compares the out-of-order machine (the model's target)
// against an in-order-issue baseline on one benchmark.
type InOrderRow struct {
	Name string
	// OOOCPI and InOrderCPI are simulated CPIs; Slowdown their ratio.
	OOOCPI     float64
	InOrderCPI float64
	Slowdown   float64
	// InOrderSmallWin is the in-order machine with a 4-entry window —
	// nearly identical to InOrderCPI because an in-order machine cannot
	// exploit a deep window.
	InOrderSmallWin float64
}

// InOrderResult quantifies why the paper models out-of-order machines:
// in-order issue forfeits the window's latency tolerance, and window size
// stops mattering.
type InOrderResult struct {
	Rows []InOrderRow
}

// InOrderBaseline runs the comparison over three contrasting benchmarks,
// fanning them out across the suite's worker pool.
func InOrderBaseline(s *Suite) (*InOrderResult, error) {
	rows, err := MapWorkloads(s, []string{"gzip", "mcf", "vpr"}, 1, func(w *Workload, _ int) (InOrderRow, error) {
		var zero InOrderRow
		ooo, err := s.Simulate(w, nil)
		if err != nil {
			return zero, err
		}
		inorder, err := s.Simulate(w, func(c *uarch.Config) { c.InOrder = true })
		if err != nil {
			return zero, err
		}
		small, err := s.Simulate(w, func(c *uarch.Config) {
			c.InOrder = true
			c.WindowSize = 4
		})
		if err != nil {
			return zero, err
		}
		row := InOrderRow{
			Name:            w.Name,
			OOOCPI:          ooo.CPI(),
			InOrderCPI:      inorder.CPI(),
			InOrderSmallWin: small.CPI(),
		}
		row.Slowdown = row.InOrderCPI / row.OOOCPI
		return row, nil
	}, nil)
	if err != nil {
		return nil, unprefixed(err)
	}
	return &InOrderResult{Rows: rows}, nil
}

// tab builds the result table.
func (r *InOrderResult) tab() *table {
	t := &table{
		title:  "In-order baseline: the machine class the first-order model does NOT target",
		header: []string{"bench", "OOO CPI", "in-order CPI", "slowdown", "in-order, window=4"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Name, f3(row.OOOCPI), f3(row.InOrderCPI),
			f2(row.Slowdown), f3(row.InOrderSmallWin))
	}
	t.addNote("in-order issue forfeits the window's latency tolerance; note how the 4-entry")
	t.addNote("window barely changes the in-order CPI — the IW characteristic is an")
	t.addNote("out-of-order phenomenon")
	return t
}

// LittleRow validates the paper's Little's-law step on one benchmark.
type LittleRow struct {
	Name string
	// MeasuredIL is the issue rate of the idealized window-limited
	// simulation run with REAL latencies at the baseline window.
	MeasuredIL float64
	// ScaledI1 is the unit-latency rate divided by the average latency —
	// the paper's I_L = I_1/L approximation.
	ScaledI1 float64
	Err      float64
}

// LittleResult checks §3's I_L = I_1/L across all benchmarks.
type LittleResult struct {
	Rows       []LittleRow
	MeanAbsErr float64
}

// LittlesLaw measures both sides of the approximation at the baseline
// window size.
func LittlesLaw(s *Suite) (*LittleResult, error) {
	lat := s.Sim.Latencies
	rows, err := MapWorkloads(s, s.Names, 1, func(w *Workload, _ int) (LittleRow, error) {
		var zero LittleRow
		real, err := iw.Characteristic(w.Trace, []int{s.Machine.WindowSize}, iw.Options{Latencies: &lat})
		if err != nil {
			return zero, err
		}
		unit, err := iw.InterpolateAt(w.Points, float64(s.Machine.WindowSize))
		if err != nil {
			return zero, err
		}
		row := LittleRow{
			Name:       w.Name,
			MeasuredIL: real[0].I,
			ScaledI1:   unit / w.Trace.AverageLatency(lat),
		}
		row.Err = relErr(row.ScaledI1, row.MeasuredIL)
		return row, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return &LittleResult{Rows: rows, MeanAbsErr: meanAbs(rows, func(r LittleRow) float64 { return r.Err })}, nil
}

// tab builds the result table.
func (r *LittleResult) tab() *table {
	t := &table{
		title:  "Little's law check (§3): I_L = I_1 / L at the baseline window",
		header: []string{"bench", "measured I_L", "I_1 / L", "err"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Name, f3(row.MeasuredIL), f3(row.ScaledI1), pct(row.Err))
	}
	t.addNote("mean |err| %s — the latency-division approximation the paper layers on the", pct(r.MeanAbsErr))
	t.addNote("unit-latency power law (exact only when latencies scale uniformly)")
	return t
}

package experiments

// Figure2Row is one benchmark of the paper's Fig. 2 (and the §1.1
// methodology behind it): the five-simulation demonstration that
// miss-event penalties add almost independently.
type Figure2Row struct {
	Name string
	// CombinedIPC is simulation 2: real caches and real predictor.
	CombinedIPC float64
	// IndependentIPC adds each miss-event's isolated time penalty
	// (simulations 3, 4, 5 minus simulation 1) to the ideal time.
	IndependentIPC float64
	// CompensatedIPC additionally ignores branch and I-cache penalties
	// that overlapped a long data-cache miss.
	CompensatedIPC float64
	// IndependentErr and CompensatedErr are relative IPC errors against
	// CombinedIPC.
	IndependentErr float64
	CompensatedErr float64
}

// Figure2Result is the full Fig. 2 dataset.
type Figure2Result struct {
	Rows []Figure2Row
	// MeanIndependentErr / MeanCompensatedErr are mean absolute relative
	// errors (the paper reports 5% and 4%).
	MeanIndependentErr float64
	MeanCompensatedErr float64
}

// Figure2 runs the five simulator configurations per benchmark and builds
// the independence demonstration. The benchmarks fan out across the
// suite's worker pool.
func Figure2(s *Suite) (*Figure2Result, error) {
	rows, err := MapWorkloads(s, s.Names, 1, func(w *Workload, _ int) (Figure2Row, error) {
		var zero Figure2Row
		iso, err := s.Isolate(w, nil, modelOptions(), EventBranch, EventICache, EventDCache)
		if err != nil {
			return zero, err
		}
		combined, err := s.Simulate(w, nil)
		if err != nil {
			return zero, err
		}

		n := float64(w.Trace.Len())
		indepCycles := float64(iso.Ideal.Sim.Cycles) +
			iso.Penalty(EventBranch) + iso.Penalty(EventICache) + iso.Penalty(EventDCache)

		// Overlap compensation: drop the per-event penalty for the
		// branch mispredictions and I-cache misses that the combined run
		// observed under an outstanding long data miss.
		compCycles := indepCycles -
			float64(combined.MispredictsOverlapped)*iso.PerEvent(EventBranch) -
			float64(combined.ICacheOverlapped)*iso.PerEvent(EventICache)

		row := Figure2Row{
			Name:           w.Name,
			CombinedIPC:    combined.IPC(),
			IndependentIPC: n / indepCycles,
			CompensatedIPC: n / compCycles,
		}
		row.IndependentErr = relErr(row.IndependentIPC, row.CombinedIPC)
		row.CompensatedErr = relErr(row.CompensatedIPC, row.CombinedIPC)
		return row, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return &Figure2Result{
		Rows:               rows,
		MeanIndependentErr: meanAbs(rows, func(r Figure2Row) float64 { return r.IndependentErr }),
		MeanCompensatedErr: meanAbs(rows, func(r Figure2Row) float64 { return r.CompensatedErr }),
	}, nil
}

// tab builds the result table.
func (r *Figure2Result) tab() *table {
	t := &table{
		title:  "Figure 2: independence of miss-event penalties (IPC)",
		header: []string{"bench", "combined", "independent", "err", "compensated", "err"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Name, f3(row.CombinedIPC),
			f3(row.IndependentIPC), pct(row.IndependentErr),
			f3(row.CompensatedIPC), pct(row.CompensatedErr))
	}
	t.addNote("mean |err|: independent %s (paper ~5%%), compensated %s (paper ~4%%)",
		pct(r.MeanIndependentErr), pct(r.MeanCompensatedErr))
	return t
}

func relErr(est, ref float64) float64 {
	if ref == 0 {
		return 0
	}
	return (est - ref) / ref
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// meanAbs is the mean of |err(x)| over xs, summed in order and then
// divided by the count; 0 for no xs.
func meanAbs[T any](xs []T, err func(T) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += abs(err(x))
	}
	return sum / float64(len(xs))
}

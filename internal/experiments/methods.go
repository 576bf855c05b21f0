package experiments

import (
	"time"

	"fomodel/internal/core"
	"fomodel/internal/sampling"
	"fomodel/internal/statsim"
)

// MethodsRow compares every estimation methodology in the repository on
// one benchmark against full detailed simulation.
type MethodsRow struct {
	Name   string
	RefCPI float64
	// Model / StatSim / Sampled are the estimates; the *Err fields their
	// relative errors.
	Model, StatSim, Sampled          float64
	ModelErr, StatSimErr, SampledErr float64
}

// MethodsResult is the accuracy/cost landscape the paper's introduction
// draws: detailed simulation is the accurate-but-slow reference, and the
// alternatives trade accuracy for speed in different ways.
type MethodsResult struct {
	Rows []MethodsRow
	// Mean errors per methodology.
	MeanModelErr, MeanStatSimErr, MeanSampledErr float64
	// Wall-clock totals per methodology across all benchmarks (the
	// reference simulation time is RefTime).
	RefTime, ModelTime, StatSimTime, SampledTime time.Duration
	// SampledFraction is the fraction of each trace timed by sampling.
	SampledFraction float64
}

// modelRepeats is how many times MethodologyComparison evaluates the
// model per benchmark to time one evaluation.
const modelRepeats = 100

// MethodologyComparison runs the four-way study. The model's time counts
// only Estimate evaluation (its trace analyses are shared with the other
// methodologies and already cached in the suite), as the mean over
// modelRepeats evaluations.
func MethodologyComparison(s *Suite) (*MethodsResult, error) {
	res := &MethodsResult{}
	// Longer windows shrink sampling's end-of-window drain bias (each
	// window pays the full latency of its in-flight misses before it can
	// finish); N/40-instruction windows (25% of the trace timed) keep it moderate.
	sc := sampling.Config{WindowLen: s.N / 40, Period: s.N / 10}
	// Each benchmark's methodology times are measured on its own worker
	// goroutine and summed afterwards, so the CPU-time totals are the same
	// whether the benchmarks run sequentially or fan out.
	type benchResult struct {
		row                              MethodsRow
		refT, modelT, statSimT, sampledT time.Duration
		sampledFraction                  float64
	}
	results, err := MapWorkloads(s, func(w *Workload) (benchResult, error) {
		var br benchResult
		t0 := time.Now()
		ref, err := s.Simulate(w, nil)
		if err != nil {
			return br, err
		}
		br.refT = time.Since(t0)

		// One evaluation takes microseconds, so a single wall-clock
		// sample of it can be mostly a preemption; time modelRepeats
		// evaluations and keep the mean.
		t0 = time.Now()
		var est core.Estimate
		for range modelRepeats {
			if est, err = s.Machine.Estimate(w.Inputs, modelOptions()); err != nil {
				return br, err
			}
		}
		br.modelT = time.Since(t0) / modelRepeats

		t0 = time.Now()
		ss, _, err := statsim.Simulate(w.Trace, s.Sim, s.Seed+0x5757)
		if err != nil {
			return br, err
		}
		br.statSimT = time.Since(t0)

		t0 = time.Now()
		sp, err := sampling.Estimate(w.Trace, s.Sim, sc)
		if err != nil {
			return br, err
		}
		br.sampledT = time.Since(t0)
		br.sampledFraction = sp.SampledFraction()

		br.row = MethodsRow{
			Name:    w.Name,
			RefCPI:  ref.CPI(),
			Model:   est.CPI,
			StatSim: ss.CPI(),
			Sampled: sp.CPI,
		}
		br.row.ModelErr = relErr(br.row.Model, br.row.RefCPI)
		br.row.StatSimErr = relErr(br.row.StatSim, br.row.RefCPI)
		br.row.SampledErr = relErr(br.row.Sampled, br.row.RefCPI)
		return br, nil
	})
	if err != nil {
		return nil, err
	}
	for _, br := range results {
		res.Rows = append(res.Rows, br.row)
		res.RefTime += br.refT
		res.ModelTime += br.modelT
		res.StatSimTime += br.statSimT
		res.SampledTime += br.sampledT
		res.SampledFraction = br.sampledFraction
	}
	res.MeanModelErr = meanAbs(res.Rows, func(r MethodsRow) float64 { return r.ModelErr })
	res.MeanStatSimErr = meanAbs(res.Rows, func(r MethodsRow) float64 { return r.StatSimErr })
	res.MeanSampledErr = meanAbs(res.Rows, func(r MethodsRow) float64 { return r.SampledErr })
	return res, nil
}

// tab builds the result table.
func (r *MethodsResult) tab() *table {
	t := &table{
		title:  "Methodology comparison (reference: full detailed simulation)",
		header: []string{"bench", "reference", "model", "err", "stat-sim", "err", "sampled", "err"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Name, f3(row.RefCPI),
			f3(row.Model), pct(row.ModelErr),
			f3(row.StatSim), pct(row.StatSimErr),
			f3(row.Sampled), pct(row.SampledErr))
	}
	t.addNote("mean |err|: model %s, statistical simulation %s, %s-sampled simulation %s",
		pct(r.MeanModelErr), pct(r.MeanStatSimErr), pct(r.SampledFraction), pct(r.MeanSampledErr))
	t.addNote("sampled CPI is biased up by the end-of-window drain of in-flight misses;")
	t.addNote("the bias shrinks with window length")
	t.addNote("wall clock: reference %v, model %v, stat-sim %v, sampled %v",
		r.RefTime.Round(time.Millisecond), r.ModelTime.Round(time.Microsecond),
		r.StatSimTime.Round(time.Millisecond), r.SampledTime.Round(time.Millisecond))
	return t
}

// Render prints the table as aligned text.
func (r *MethodsResult) Render() string { return r.tab().String() }

// CSV renders the table as comma-separated values.
func (r *MethodsResult) CSV() string { return r.tab().CSV() }

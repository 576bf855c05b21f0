package experiments

import (
	"fomodel/internal/predictor"
	"fomodel/internal/uarch"
)

// PredictorPoint is one (predictor, benchmark) sample of the predictor
// sensitivity study.
type PredictorPoint struct {
	Predictor string
	Bench     string
	// MispredictRate is the functional mispredictions per branch.
	MispredictRate float64
	SimCPI         float64
	ModelCPI       float64
	Err            float64
}

// PredictorStudyResult validates that the model's branch term tracks the
// simulator as the predictor quality varies — the model consumes only the
// misprediction *rate*, so any predictor that the functional analyzer can
// simulate slots straight in.
type PredictorStudyResult struct {
	Points []PredictorPoint
	// MeanAbsErrByPredictor aggregates the model error per predictor.
	MeanAbsErrByPredictor map[string]float64
}

// PredictorStudy runs gshare (8K), bimodal (8K), and always-taken across
// three branch-sensitive benchmarks.
func PredictorStudy(s *Suite) (*PredictorStudyResult, error) {
	specs := []predictor.Spec{
		{Kind: predictor.KindGshare, IndexBits: 13},
		{Kind: predictor.KindBimodal, IndexBits: 13},
		{Kind: predictor.KindAlwaysTaken},
	}
	benches := []string{"gzip", "crafty", "twolf"}
	type predictorJob struct {
		bench string
		spec  predictor.Spec
	}
	var jobs []predictorJob
	for _, bench := range benches {
		for i := range specs {
			jobs = append(jobs, predictorJob{bench: bench, spec: specs[i]})
		}
	}
	res := &PredictorStudyResult{MeanAbsErrByPredictor: make(map[string]float64)}
	counts := make(map[string]int)
	err := RunOrdered(s.workers(), len(jobs), func(i int) (PredictorPoint, error) {
		var zero PredictorPoint
		bench, spec := jobs[i].bench, jobs[i].spec
		w, err := s.Workload(bench)
		if err != nil {
			return zero, err
		}
		// The predictor changes the functional analysis, so Compare
		// re-analyzes with it for the misprediction rate.
		c, err := s.Compare(w, func(c *uarch.Config) { c.Predictor = &spec }, modelOptions())
		if err != nil {
			return zero, err
		}
		return PredictorPoint{
			Predictor:      spec.Kind.String(),
			Bench:          bench,
			MispredictRate: c.Analysis.Summary.MispredictRate(),
			SimCPI:         c.Sim.CPI(),
			ModelCPI:       c.Estimate.CPI,
			Err:            c.Err(),
		}, nil
	}, func(_ int, pt PredictorPoint) error {
		res.Points = append(res.Points, pt)
		res.MeanAbsErrByPredictor[pt.Predictor] += abs(pt.Err)
		counts[pt.Predictor]++
		return nil
	})
	if err != nil {
		return nil, err
	}
	for name, total := range res.MeanAbsErrByPredictor {
		res.MeanAbsErrByPredictor[name] = total / float64(counts[name])
	}
	return res, nil
}

// tab builds the result table.
func (r *PredictorStudyResult) tab() *table {
	t := &table{
		title:  "Predictor sensitivity study: the model consumes only the misprediction rate",
		header: []string{"bench", "predictor", "misp/branch", "model CPI", "sim CPI", "err"},
	}
	for _, p := range r.Points {
		t.addRow(p.Bench, p.Predictor, pct(p.MispredictRate), f3(p.ModelCPI), f3(p.SimCPI), pct(p.Err))
	}
	for _, name := range []string{"gshare", "bimodal", "always-taken"} {
		if e, ok := r.MeanAbsErrByPredictor[name]; ok {
			t.addNote("mean |err| with %s: %s", name, pct(e))
		}
	}
	return t
}

// Render prints the table as aligned text.
func (r *PredictorStudyResult) Render() string { return r.tab().String() }

// CSV renders the table as comma-separated values.
func (r *PredictorStudyResult) CSV() string { return r.tab().CSV() }

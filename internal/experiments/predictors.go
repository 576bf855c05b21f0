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
	points, err := MapWorkloads(s, []string{"gzip", "crafty", "twolf"}, len(specs), func(w *Workload, v int) (PredictorPoint, error) {
		spec := specs[v]
		// The predictor changes the functional analysis, so Compare
		// re-analyzes with it for the misprediction rate.
		c, err := s.Compare(w, func(c *uarch.Config) { c.Predictor = &spec }, modelOptions())
		if err != nil {
			return PredictorPoint{}, err
		}
		return PredictorPoint{
			Predictor:      spec.Kind.String(),
			Bench:          w.Name,
			MispredictRate: c.Analysis.Summary.MispredictRate(),
			SimCPI:         c.Sim.CPI(),
			ModelCPI:       c.Estimate.CPI,
			Err:            c.Err(),
		}, nil
	}, nil)
	if err != nil {
		return nil, unprefixed(err)
	}
	res := &PredictorStudyResult{Points: points, MeanAbsErrByPredictor: make(map[string]float64)}
	counts := make(map[string]int)
	for _, pt := range points {
		res.MeanAbsErrByPredictor[pt.Predictor] += abs(pt.Err)
		counts[pt.Predictor]++
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

package server

import (
	"fomodel/internal/core"
	"fomodel/internal/experiments"
	"fomodel/internal/iw"
	"fomodel/internal/uarch"
)

// predictRecord is the daemon's predict pipeline. The analysis bundle is
// resolved by content, cheapest source first: the in-memory analysis
// cache, then the artifact store *without materializing the trace* (a
// model-only prediction needs the bundle, not the 24-bytes-per-
// instruction trace — this is what makes a restarted daemon's first
// requests fast), and only then the trace caches and the full analysis
// pipeline. After LookupAnalysis misses on a dedicated-cache trace, the
// analysis is computed and stored without a second read of the same
// key. The trace is written to the store only for a request that
// simulates (see traceFor).
func (s *Server) predictRecord(req PredictRequest, machine core.Machine, ucfg uarch.Config,
	mode core.BranchPenaltyMode) (PredictRecord, error) {
	scfg := predictStatsConfig(machine, ucfg)
	rw, err := s.resolveWorkload(req)
	if err != nil {
		return PredictRecord{}, err
	}
	key := experiments.AnalysisKey(rw.contentID, iw.DefaultWindows(), scfg)
	an, _, err := s.analysis.Do(key, func() (*experiments.AnalysisArtifact, error) {
		if a, ok := experiments.LookupAnalysis(s.cfg.Store, rw.contentID, req.N, iw.DefaultWindows(), scfg); ok {
			return a, nil
		}
		t, err := s.traceFor(rw, req.Sim)
		if err != nil {
			return nil, err
		}
		if s.suiteTrace(rw) {
			// Loading the suite's workload may have just stored this
			// analysis key, so read it once more.
			return experiments.ComputeAnalysis(s.cfg.Store, t, iw.DefaultWindows(), scfg)
		}
		return experiments.AnalyzeAndStore(s.cfg.Store, t, iw.DefaultWindows(), scfg)
	})
	if err != nil {
		return PredictRecord{}, err
	}
	inputs, err := core.InputsFromCurve(an.Law, an.Points, machine.WindowSize, an.Summary)
	if err != nil {
		return PredictRecord{}, err
	}
	est, err := machine.Estimate(inputs, core.Options{BranchMode: mode})
	if err != nil {
		return PredictRecord{}, err
	}
	rec := PredictRecord{Bench: req.Bench, Inputs: inputs, Estimate: est}
	if req.Sim {
		t, err := s.traceFor(rw, true)
		if err != nil {
			return PredictRecord{}, err
		}
		r, err := s.suite.SimulateTrace(t, ucfg)
		if err != nil {
			return PredictRecord{}, err
		}
		cpi := r.CPI()
		rec.SimCPI = &cpi
	}
	return rec, nil
}

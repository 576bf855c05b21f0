package server

import (
	"context"

	"fomodel/internal/core"
	"fomodel/internal/experiments"
	"fomodel/internal/iw"
	"fomodel/internal/reqkey"
	"fomodel/internal/uarch"
)

// predictJob is a normalized predict request with its validated machine:
// the model's, the simulator's and the branch-penalty mode.
type predictJob struct {
	req     PredictRequest
	machine core.Machine
	ucfg    uarch.Config
	mode    core.BranchPenaltyMode
}

// newPredictJob resolves and validates a normalized request's branch
// mode and machine. Every error it returns is the request's fault:
// structurally invalid machines are rejected up front, so configuration
// mistakes are 400s and only genuine computation failures become 500s.
func newPredictJob(req PredictRequest) (predictJob, error) {
	mode, err := ParseBranchMode(req.BranchMode)
	if err != nil {
		return predictJob{}, err
	}
	machine, err := req.Machine.Machine()
	if err != nil {
		return predictJob{}, err
	}
	ucfg, err := req.Machine.SimConfig()
	if err != nil {
		return predictJob{}, err
	}
	if err := machine.Validate(); err != nil {
		return predictJob{}, err
	}
	if err := ucfg.Validate(); err != nil {
		return predictJob{}, err
	}
	return predictJob{req: req, machine: machine, ucfg: ucfg, mode: mode}, nil
}

// predict answers one predict request through the response cache: the
// encoded PredictRecord and whether it was a hit. The request is
// normalized once, and that one normalized value is both the cache key
// and what the computation uses, the registered workload's content hash
// included. A mistake in the request comes back as a badRequest. Each
// answered predict of a registered workload, hit or computed, counts in
// the registered-use metrics; a failed one does not.
func (s *Server) predict(ctx context.Context, req PredictRequest) ([]byte, bool, error) {
	if err := req.Normalize(s.keys); err != nil {
		return nil, false, badRequest{err}
	}
	j, err := newPredictJob(req)
	if err != nil {
		return nil, false, badRequest{err}
	}
	key, err := reqkey.Canonical("predict", req)
	if err != nil {
		return nil, false, err
	}
	body, hit, err := s.cache.Do(key, func() ([]byte, error) {
		if s.panicHook != nil {
			s.panicHook(j.req.Bench)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rec, err := s.predictRecord(j)
		if err != nil {
			return nil, err
		}
		return EncodeIndented(rec)
	})
	if err == nil {
		s.noteRegisteredUse(req, hit)
	}
	return body, hit, err
}

// predictRecord is the daemon's predict pipeline. The analysis bundle is
// resolved by content, cheapest source first: the in-memory analysis
// cache, then the artifact store *without materializing the trace* (a
// model-only prediction needs the bundle, not the 24-bytes-per-
// instruction trace — this is what makes a restarted daemon's first
// requests fast), and only then the trace caches and the full analysis
// pipeline. A request at the server's default length and seed takes the
// suite's bundle when the suite analysed the trace under the same key,
// so its workload is analysed once, not twice. After LookupAnalysis
// misses, an analysis is computed and stored without a second read of
// the same key. The trace is written to the store only for a request
// that simulates (see traceFor).
func (s *Server) predictRecord(j predictJob) (PredictRecord, error) {
	req, machine, ucfg := j.req, j.machine, j.ucfg
	scfg := predictStatsConfig(machine, ucfg)
	rw := resolveWorkload(req)
	key := experiments.AnalysisKey(rw.contentID, iw.DefaultWindows(), scfg)
	an, _, err := s.analysis.Do(key, func() (*experiments.AnalysisArtifact, error) {
		if a, ok := experiments.LookupAnalysis(s.cfg.Store, rw.contentID, req.N, iw.DefaultWindows(), scfg); ok {
			return a, nil
		}
		if s.suiteTrace(rw) {
			w, err := s.suite.Workload(rw.bench)
			if err != nil {
				return nil, err
			}
			// Loading the suite's workload analysed it under the suite's
			// configuration; when that is this key, as it is for the
			// default machine, the suite's bundle is the answer.
			if a, suiteKey := s.suite.Analysis(w); suiteKey == key {
				return a, nil
			}
		}
		t, err := s.traceFor(rw, req.Sim)
		if err != nil {
			return nil, err
		}
		return experiments.AnalyzeAndStore(s.cfg.Store, t, iw.DefaultWindows(), scfg)
	})
	if err != nil {
		return PredictRecord{}, err
	}
	var simulate func() (*uarch.Result, error)
	if req.Sim {
		simulate = func() (*uarch.Result, error) {
			t, err := s.traceFor(rw, true)
			if err != nil {
				return nil, err
			}
			return s.suite.SimulateTrace(t, ucfg)
		}
	}
	return composePredict(req.Bench, an, machine, j.mode, simulate)
}

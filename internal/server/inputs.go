package server

import (
	"context"

	"fomodel/internal/core"
	"fomodel/internal/experiments"
	"fomodel/internal/reqkey"
	"fomodel/internal/uarch"
)

// predictJob is a normalized predict request with its validated machine
// and branch-penalty mode. The machine is the simulator's configuration;
// the model's machine and the analysis configuration derive from it.
type predictJob struct {
	req  PredictRequest
	ucfg uarch.Config
	mode core.BranchPenaltyMode
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
	ucfg, err := req.Machine.SimConfig()
	if err != nil {
		return predictJob{}, err
	}
	if err := experiments.ModelMachine(ucfg).Validate(); err != nil {
		return predictJob{}, err
	}
	if err := ucfg.Validate(); err != nil {
		return predictJob{}, err
	}
	return predictJob{req: req, ucfg: ucfg, mode: mode}, nil
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

// predictRecord is the daemon's predict pipeline. The analysis bundle
// comes from the suite by content, cheapest source first: its analysis
// cache, then the artifact store *without materializing the trace* (a
// model-only prediction needs the bundle, not the 24-bytes-per-
// instruction trace — this is what makes a restarted daemon's first
// requests fast), and only then the full analysis pipeline. A
// default-machine predict at the default length and seed has the
// suite's own analysis key, so it shares the bundle sweeps and the
// warm-up use. A request that simulates reads the trace before the
// analysis, so the trace is generated once, cached and stored; a
// model-only request leaves its trace in neither unless another
// analysis of the same content needs it (see Suite.Analyze).
func (s *Server) predictRecord(j predictJob) (PredictRecord, error) {
	req, ucfg := j.req, j.ucfg
	// The content hash Normalize stamped, not a second registry read,
	// names what is computed: two names registered with identical
	// content share traces, analyses and artifacts, and the computation
	// is always of the content the request was keyed under.
	src := experiments.Source{Name: req.Bench, N: req.N, Seed: req.Seed, Content: req.Content}
	var simulate func() (*uarch.Result, error)
	if req.Sim {
		t, err := s.suite.Trace(src)
		if err != nil {
			return PredictRecord{}, err
		}
		simulate = func() (*uarch.Result, error) { return s.suite.SimulateTrace(t, ucfg) }
	}
	an, err := s.suite.Analyze(src, ucfg.Analysis())
	if err != nil {
		return PredictRecord{}, err
	}
	return composePredict(req.Bench, an, ucfg, j.mode, simulate)
}

package server

import (
	"context"

	"fomodel/internal/core"
	"fomodel/internal/experiments"
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

// predictRecord is the daemon's predict pipeline. The analysis bundle
// comes from the suite by content, cheapest source first: its analysis
// cache, then the artifact store *without materializing the trace* (a
// model-only prediction needs the bundle, not the 24-bytes-per-
// instruction trace — this is what makes a restarted daemon's first
// requests fast), and only then its trace cache and the full analysis
// pipeline. A default-machine predict at the default length and seed
// has the suite's own analysis key, so it shares the bundle sweeps and
// the warm-up use. The trace is written to the store only for a
// request that simulates.
func (s *Server) predictRecord(j predictJob) (PredictRecord, error) {
	req, machine, ucfg := j.req, j.machine, j.ucfg
	// The content hash Normalize stamped, not a second registry read,
	// names what is computed: two names registered with identical
	// content share traces, analyses and artifacts, and the computation
	// is always of the content the request was keyed under.
	src := experiments.Source{Name: req.Bench, N: req.N, Seed: req.Seed, Content: req.Content}
	an, err := s.suite.Analyze(src, predictStatsConfig(machine, ucfg), req.Sim)
	if err != nil {
		return PredictRecord{}, err
	}
	var simulate func() (*uarch.Result, error)
	if req.Sim {
		simulate = func() (*uarch.Result, error) {
			t, err := s.suite.Trace(src, true)
			if err != nil {
				return nil, err
			}
			return s.suite.SimulateTrace(t, ucfg)
		}
	}
	return composePredict(req.Bench, an, machine, j.mode, simulate)
}

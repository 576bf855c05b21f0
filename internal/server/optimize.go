package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"fomodel/internal/core"
	"fomodel/internal/experiments"
	"fomodel/internal/httpfront"
	"fomodel/internal/optimize"
	"fomodel/internal/reqkey"
)

// This file is the daemon's half of the /v1/optimize surface: the
// design-space search lives in internal/optimize; the daemon supplies
// the evaluator — the model half of /v1/predict run on one analysis per
// mix workload — plus request validation, cache keying and the optimize
// metrics; serveSearch serves the result buffered or streamed.

// OptimizeResponse is the buffered /v1/optimize body: the structured
// search result plus the rendered table and CSV, byte-identical to what
// `fomodel -optimize -json` prints for the same spec.
type OptimizeResponse struct {
	*optimize.Result
	Render string `json:"render"`
	CSV    string `json:"csv"`
}

// OptimizeTrailer is the final row of a streamed (NDJSON) optimize:
// everything the buffered OptimizeResponse carries except the points,
// which were already streamed one row per accepted candidate.
// Reassembling the rows into an OptimizeResponse reproduces the buffered
// body byte for byte (pinned by tests).
type OptimizeTrailer struct {
	Spec        optimize.Spec    `json:"spec"`
	Frontier    []optimize.Point `json:"frontier"`
	Evaluations int              `json:"evaluations"`
	Rounds      int              `json:"rounds"`
	GridSize    int              `json:"grid_size"`
	Converged   bool             `json:"converged"`
	Render      string           `json:"render"`
	CSV         string           `json:"csv"`
}

// optimizeEval builds the search's evaluator. Each mix workload's
// content is resolved once, against the registry now, and its analysis
// is computed once, at the first evaluation that needs it, under the
// analysis configuration (uarch.Config.Analysis) of the baseline machine
// with the spec's TLB, so at the baseline ROB; at the daemon's default
// length and seed that is the analysis the warm-up computes. An evaluation builds the candidate's machine and
// runs the model on that analysis (AnalysisArtifact.Estimate regroups
// the misses for the candidate's ROB), so a search adds no predict
// entries to the response cache and one analysis per workload to the
// analysis cache.
func (s *Server) optimizeEval(spec optimize.Spec) (optimize.EvalFunc, error) {
	ucfg, err := MachineSpec{TLB: spec.TLB}.SimConfig()
	if err != nil {
		return nil, err
	}
	scfg := ucfg.Analysis()
	analyses := make(map[string]func() (*experiments.AnalysisArtifact, error), len(spec.Workloads))
	for _, w := range spec.Workloads {
		content, err := reqkey.Content(s.keys.Resolver, w.Bench)
		if err != nil {
			return nil, err
		}
		src := experiments.Source{Name: w.Bench, N: spec.N, Seed: spec.TraceSeed, Content: content}
		analyses[w.Bench] = sync.OnceValues(func() (*experiments.AnalysisArtifact, error) {
			return s.suite.Analyze(src, scfg)
		})
	}
	return func(ctx context.Context, cfg optimize.Config, bench string) (float64, error) {
		if s.panicHook != nil {
			s.panicHook(bench)
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		an, err := analyses[bench]()
		if err != nil {
			return 0, err
		}
		machine, err := MachineSpec{
			Width:       cfg.Width,
			Depth:       cfg.Depth,
			Window:      cfg.Window,
			ROB:         cfg.ROB,
			Clusters:    cfg.Clusters,
			FetchBuffer: cfg.FetchBuffer,
			TLB:         spec.TLB,
		}.Machine()
		if err != nil {
			return 0, err
		}
		_, est, err := an.Estimate(machine, core.Options{BranchMode: core.BranchMidpoint})
		if err != nil {
			return 0, err
		}
		s.optEvals.Inc()
		return est.CPI, nil
	}, nil
}

// normalizeOptimize fills spec's defaults and validates it, returning an
// error fit for a 400 response.
func (s *Server) normalizeOptimize(spec *optimize.Spec) error {
	if err := spec.Normalize(s.keys); err != nil {
		return err
	}
	if spec.N < minTraceLen || spec.N > maxTraceLen {
		return fmt.Errorf("n %d outside [%d, %d]", spec.N, minTraceLen, maxTraceLen)
	}
	return nil
}

// Optimize runs one design-space search through the daemon's
// evaluator. It is exported so the CLI's local -optimize mode runs
// the very same code an in-process daemon would, which is what makes
// local and remote outputs byte-identical.
func (s *Server) Optimize(ctx context.Context, spec optimize.Spec) (*optimize.Result, error) {
	if err := s.normalizeOptimize(&spec); err != nil {
		return nil, err
	}
	return s.runOptimize(ctx, spec, nil)
}

// runOptimize is Optimize for a spec normalizeOptimize has accepted.
// emit, when non-nil, receives accepted points in discovery order.
func (s *Server) runOptimize(ctx context.Context, spec optimize.Spec, emit func(optimize.Point) error) (*optimize.Result, error) {
	eval, err := s.optimizeEval(spec)
	if err != nil {
		return nil, err
	}
	res, err := optimize.Run(ctx, spec, eval, optimize.Options{
		Workers:  s.cfg.Workers,
		Emit:     emit,
		Resolver: s.keys.Resolver,
	})
	if err != nil {
		return nil, err
	}
	s.optRounds.Add(int64(res.Rounds))
	s.optFrontier.Set(int64(len(res.Frontier)))
	return res, nil
}

func (s *Server) handleOptimize(w *httpfront.Writer, r *http.Request) {
	var spec optimize.Spec
	if !decodeRequest(w, r, MaxBodyBytes, &spec) {
		return
	}
	if err := s.normalizeOptimize(&spec); err != nil {
		httpfront.WriteError(w, http.StatusBadRequest, "%s", err)
		return
	}
	serveSearch(s, w, r, search[optimize.Point, *optimize.Result]{
		key:        func() (string, error) { return OptimizeCacheKey(spec, s.keys) },
		label:      spec.Title,
		deadlineMS: spec.DeadlineMS,
		run: func(ctx context.Context, emit func(optimize.Point) error) (*optimize.Result, error) {
			return s.runOptimize(ctx, spec, emit)
		},
		body: func(res *optimize.Result) any {
			return OptimizeResponse{Result: res, Render: res.Render(), CSV: res.CSV()}
		},
		trailer: func(res *optimize.Result) any {
			return OptimizeTrailer{
				Spec:        res.Spec,
				Frontier:    res.Frontier,
				Evaluations: res.Evaluations,
				Rounds:      res.Rounds,
				GridSize:    res.GridSize,
				Converged:   res.Converged,
				Render:      res.Render(),
				CSV:         res.CSV(),
			}
		},
	})
}

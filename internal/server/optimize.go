package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"fomodel/internal/httpfront"
	"fomodel/internal/optimize"
)

// This file is the daemon's half of the /v1/optimize surface: the
// design-space search lives in internal/optimize; the daemon supplies
// the evaluator — the exact /v1/predict compute path, response cache
// included — plus request validation, cache keying and the optimize
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

// optimizeMachineSpec projects one candidate onto the predict wire
// shape. Every searched axis is explicit, so all optimize evaluations
// live in one fully-specified predict keyspace — two searches (or a
// search and a later identically-spelled predict) share cache entries.
// Clusters 1 maps to the unset baseline so unclustered candidates key
// identically to default-machine predicts with the same overrides.
func optimizeMachineSpec(cfg optimize.Config, tlb bool) MachineSpec {
	m := MachineSpec{
		Width:       cfg.Width,
		Depth:       cfg.Depth,
		Window:      cfg.Window,
		ROB:         cfg.ROB,
		FetchBuffer: cfg.FetchBuffer,
		TLB:         tlb,
	}
	if cfg.Clusters > 1 {
		m.Clusters = cfg.Clusters
	}
	return m
}

// optimizeEval builds the search's evaluator: one candidate × benchmark
// scored through the daemon's own predict path — response cache,
// analysis cache, artifact store, prep cache and all. The model CPI is
// read back from the cached response bytes, so a cache hit and a fresh
// computation yield the identical float (Go's JSON float round-trip is
// exact).
func (s *Server) optimizeEval(spec optimize.Spec) optimize.EvalFunc {
	return func(ctx context.Context, cfg optimize.Config, bench string) (float64, error) {
		body, hit, err := s.predict(ctx, PredictRequest{
			Bench:   bench,
			N:       spec.N,
			Seed:    spec.TraceSeed,
			Machine: optimizeMachineSpec(cfg, spec.TLB),
		})
		if err != nil {
			return 0, err
		}
		s.optEvals.Inc()
		if hit {
			s.optEvalHits.Inc()
		}
		var rec PredictRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			return 0, fmt.Errorf("malformed cached predict body: %w", err)
		}
		return rec.Estimate.CPI, nil
	}
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

// Optimize runs one design-space search through the daemon's predict
// compute path. It is exported so the CLI's local -optimize mode runs
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
	res, err := optimize.Run(ctx, spec, s.optimizeEval(spec), optimize.Options{
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

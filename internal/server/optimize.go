package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"fomodel/internal/core"
	"fomodel/internal/httpfront"
	"fomodel/internal/optimize"
)

// This file is the daemon's half of the /v1/optimize surface: the
// design-space search lives in internal/optimize; the daemon supplies
// the evaluator — the exact /v1/predict compute path, response cache
// included — plus request validation, cache keying, NDJSON streaming,
// and the optimize metrics.

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
		req := PredictRequest{
			Bench:   bench,
			N:       spec.N,
			Seed:    spec.TraceSeed,
			Machine: optimizeMachineSpec(cfg, spec.TLB),
		}
		key, err := PredictCacheKey(req, s.cfg.KeyDefaults())
		if err != nil {
			return 0, err
		}
		machine, err := req.Machine.Machine()
		if err != nil {
			return 0, err
		}
		ucfg, err := req.Machine.SimConfig()
		if err != nil {
			return 0, err
		}
		if err := machine.Validate(); err != nil {
			return 0, err
		}
		if err := ucfg.Validate(); err != nil {
			return 0, err
		}
		body, hit, err := s.cache.Do(key, func() ([]byte, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			rec, err := s.predictRecord(req, machine, ucfg, core.BranchMidpoint)
			if err != nil {
				return nil, err
			}
			b, err := EncodeIndented(rec)
			if err != nil {
				return nil, err
			}
			return b, nil
		})
		if err != nil {
			return 0, err
		}
		s.optEvals.Inc()
		if hit {
			s.optEvalHits.Inc()
		}
		s.noteRegisteredUse(bench, hit)
		var rec PredictRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			return 0, fmt.Errorf("malformed cached predict body: %w", err)
		}
		return rec.Estimate.CPI, nil
	}
}

// Optimize runs one design-space search through the daemon's predict
// compute path. It is exported so the CLI's local -optimize mode runs
// the very same code an in-process daemon would, which is what makes
// local and remote outputs byte-identical. emit, when non-nil, receives
// accepted points in discovery order.
func (s *Server) Optimize(ctx context.Context, spec optimize.Spec, emit func(optimize.Point) error) (*optimize.Result, error) {
	if err := spec.NormalizeWith(s.cfg.N, s.cfg.Seed, s.knownWorkload); err != nil {
		return nil, err
	}
	if spec.N < minTraceLen || spec.N > maxTraceLen {
		return nil, fmt.Errorf("n %d outside [%d, %d]", spec.N, minTraceLen, maxTraceLen)
	}
	res, err := optimize.Run(ctx, spec, s.optimizeEval(spec), optimize.Options{
		Workers:       s.cfg.Workers,
		Emit:          emit,
		KnownWorkload: s.knownWorkload,
	})
	if err != nil {
		return nil, err
	}
	s.optRounds.Add(int64(res.Rounds))
	s.optFrontier.Set(int64(len(res.Frontier)))
	return res, nil
}

// optimizeDeadline applies the spec's own deadline on top of the
// request's; the returned cancel must run even when the deadline is
// unset.
func optimizeDeadline(ctx context.Context, spec optimize.Spec) (context.Context, context.CancelFunc) {
	if spec.DeadlineMS <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, time.Duration(spec.DeadlineMS)*time.Millisecond)
}

func (s *Server) handleOptimize(w *httpfront.Writer, r *http.Request) {
	var spec optimize.Spec
	if !decodeRequest(w, r, MaxBodyBytes, &spec) {
		return
	}
	if err := spec.NormalizeWith(s.cfg.N, s.cfg.Seed, s.knownWorkload); err != nil {
		httpfront.WriteError(w, http.StatusBadRequest, "%s", err)
		return
	}
	if spec.N < minTraceLen || spec.N > maxTraceLen {
		httpfront.WriteError(w, http.StatusBadRequest, "n %d outside [%d, %d]", spec.N, minTraceLen, maxTraceLen)
		return
	}
	if wantsNDJSON(r) {
		s.streamOptimize(w, r, spec)
		return
	}
	key, err := OptimizeCacheKey(spec, s.cfg.KeyDefaults())
	if err != nil {
		httpfront.WriteError(w, http.StatusInternalServerError, "%s", err)
		return
	}
	ctx, cancel := optimizeDeadline(r.Context(), spec)
	defer cancel()
	body, hit, err := s.cache.Do(key, func() ([]byte, error) {
		if s.panicHook != nil {
			s.panicHook(spec.Title)
		}
		res, err := s.Optimize(ctx, spec, nil)
		if err != nil {
			return nil, err
		}
		body, err := EncodeIndented(OptimizeResponse{Result: res, Render: res.Render(), CSV: res.CSV()})
		if err != nil {
			return nil, err
		}
		return body, nil
	})
	// The spec's own deadline expiring is the client's doing, not the
	// server's computation limit: report it precisely.
	if errors.Is(err, context.DeadlineExceeded) && spec.DeadlineMS > 0 && r.Context().Err() == nil {
		httpfront.WriteError(w, http.StatusServiceUnavailable,
			"search exceeded the spec's %dms deadline", spec.DeadlineMS)
		return
	}
	s.finishCompute(w, body, hit, err)
}

// streamOptimize is the NDJSON optimize mode: one compact Point row per
// accepted candidate, flushed as it is discovered, then one
// OptimizeTrailer row with the search-level fields. Like streamed
// sweeps, streamed searches bypass the response cache (rows leave before
// the result exists) but every evaluation underneath still lands in the
// predict response cache. Mid-stream failures follow the established
// convention: a final {"error": ...} row, since the 200 header is
// already on the wire.
func (s *Server) streamOptimize(w *httpfront.Writer, r *http.Request, spec optimize.Spec) {
	ctx, cancel := optimizeDeadline(r.Context(), spec)
	defer cancel()
	res, err := func() (res *optimize.Result, err error) {
		// Worker panics arrive as PanicError via the engine's guard; this
		// recover catches the handler goroutine itself, turning both into
		// a structured error instead of a severed connection.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("internal panic: %v", r)
			}
		}()
		if s.panicHook != nil {
			s.panicHook(spec.Title)
		}
		return s.Optimize(ctx, spec, func(pt optimize.Point) error {
			return writeRow(w, pt)
		})
	}()
	if err != nil {
		if w.Code == 0 {
			if errors.Is(err, context.DeadlineExceeded) && spec.DeadlineMS > 0 && r.Context().Err() == nil {
				httpfront.WriteError(w, http.StatusServiceUnavailable,
					"search exceeded the spec's %dms deadline", spec.DeadlineMS)
				return
			}
			s.finishCompute(w, nil, false, err)
			return
		}
		if r.Context().Err() == nil {
			//folint:allow(errdrop) final error row on a dying stream; a failed write means the client is gone too
			writeRow(w, httpfront.ErrorBody{Error: err.Error()})
		}
		return
	}
	writeRow(w, OptimizeTrailer{ //folint:allow(errdrop) trailer ends the stream; a failed write means the client is gone and there is nothing left to send
		Spec:        res.Spec,
		Frontier:    res.Frontier,
		Evaluations: res.Evaluations,
		Rounds:      res.Rounds,
		GridSize:    res.GridSize,
		Converged:   res.Converged,
		Render:      res.Render(),
		CSV:         res.CSV(),
	})
}

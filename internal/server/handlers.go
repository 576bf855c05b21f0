package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"fomodel/internal/experiments"
	"fomodel/internal/httpfront"
	"fomodel/internal/reqkey"
)

// MaxBodyBytes bounds request bodies: every valid request body is a
// small JSON object, so anything bigger is rejected before decoding. The
// fomodelproxy router reads bodies under the same bounds, so a client
// sees the same 413 whether or not a proxy sits in front.
const MaxBodyBytes = 1 << 16

// Instruction-count bounds per request, keeping a single request's
// memory and CPU within reason.
const (
	minTraceLen = 1000
	maxTraceLen = 5_000_000
)

// decodeRequest reads the request body, bounded by limit, and parses it
// strictly into v (unknown fields and trailing data are errors),
// answering 413 or 400 itself when it cannot.
func decodeRequest(w *httpfront.Writer, r *http.Request, limit int64, v any) bool {
	raw, ok := httpfront.ReadBody(w, r, limit)
	if !ok {
		return false
	}
	if err := httpfront.DecodeStrict(raw, v); err != nil {
		httpfront.WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// EncodeIndented marshals v exactly the way the CLI's -json mode does
// (two-space indent, trailing newline), preserving byte equivalence
// between a server response and the corresponding CLI output. The
// fomodelproxy router uses the same encoder to reassemble split batch
// responses, which is what keeps them byte-equal to a single daemon's.
func EncodeIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// PredictRequest asks for one workload's CPI stack on one machine.
type PredictRequest struct {
	// Bench names the workload profile.
	Bench string `json:"bench"`
	// N and Seed override the server's trace defaults when positive.
	N    int    `json:"n,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
	// Machine overrides baseline machine parameters.
	Machine MachineSpec `json:"machine,omitempty"`
	// BranchMode selects the branch penalty derivation
	// (midpoint|isolated|measured; default midpoint).
	BranchMode string `json:"branch_mode,omitempty"`
	// Sim additionally runs the detailed simulator and reports its CPI.
	Sim bool `json:"sim,omitempty"`
	// Content is the registered workload's profile content hash, filled
	// during normalization when Bench names a registered custom
	// workload (empty for built-ins, which keeps their canonical keys
	// byte-identical to pre-registry servers). Client-supplied values
	// are overwritten, so a forged hash can never pin a request to a
	// stale cache entry.
	Content string `json:"content,omitempty"`
}

// Normalize fills defaults and validates, returning an error fit for a
// 400 response. It is idempotent, and it is the shared canonicalization
// step: the daemon normalizes before keying its response cache, and the
// fomodelproxy router normalizes (via PredictCacheKey) before hashing
// onto the ring. Names that are not built-in profiles resolve through
// d.Resolver (the daemon's workload registry, or the router's mirror of
// it); the resolved content hash lands in req.Content, making the
// registered profile's content part of the canonical key.
func (req *PredictRequest) Normalize(d reqkey.Defaults) error {
	if req.N == 0 {
		req.N = d.N
	}
	if req.Seed == 0 {
		req.Seed = d.Seed
	}
	if req.BranchMode == "" {
		req.BranchMode = "midpoint"
	}
	content, err := reqkey.Content(d.Resolver, req.Bench)
	if err != nil {
		return err
	}
	req.Content = content
	if req.N < minTraceLen || req.N > maxTraceLen {
		return fmt.Errorf("n %d outside [%d, %d]", req.N, minTraceLen, maxTraceLen)
	}
	return nil
}

func (s *Server) handlePredict(w *httpfront.Writer, r *http.Request) {
	var req PredictRequest
	if !decodeRequest(w, r, MaxBodyBytes, &req) {
		return
	}
	body, hit, err := s.predict(r.Context(), req)
	s.finishCompute(w, body, hit, err)
}

// SweepResponse is the /v1/sweep body: the structured sweep points plus
// the rendered table and CSV, byte-identical to what cmd/experiments
// prints for the same sweep.
type SweepResponse struct {
	*experiments.SweepResult
	Render string `json:"render"`
	CSV    string `json:"csv"`
}

// SweepTrailer is the final row of a streamed (NDJSON) sweep: everything
// the buffered SweepResponse carries except the points, which were
// already streamed one row per grid cell. Reassembling the rows into a
// SweepResponse reproduces the buffered body byte for byte (pinned by
// tests).
type SweepTrailer struct {
	Title      string  `json:"title"`
	Param      string  `json:"param"`
	MeanAbsErr float64 `json:"mean_abs_err"`
	Render     string  `json:"render"`
	CSV        string  `json:"csv"`
}

// writeRow writes v as one row of a streamed NDJSON response and flushes
// it; the first row sends the 200 and the content type.
func writeRow(w *httpfront.Writer, v any) error {
	row, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if w.Code == 0 {
		w.Header().Set("Content-Type", httpfront.NDJSON)
		w.WriteHeader(http.StatusOK)
	}
	if _, err := w.Write(append(row, '\n')); err != nil {
		return err
	}
	w.Flush()
	return nil
}

// search is one design-space search endpoint as serveSearch serves it:
// a computation that hands each row (P) to emit as it is found and
// returns the result (R) the response is built from.
type search[P, R any] struct {
	// key is the buffered response's cache key. It names the content
	// of the registered workloads the spec lists as the registry holds
	// it now, so serveSearch derives it again after computing.
	key func() (string, error)
	// label is what panicHook receives for the search as a whole.
	label string
	// deadlineMS is the request's own deadline on top of the server's;
	// 0 sets none.
	deadlineMS int
	// run computes the result; emit is nil on the buffered path.
	run func(ctx context.Context, emit func(P) error) (R, error)
	// body builds the buffered response, trailer the stream's last row.
	body, trailer func(R) any
}

// serveSearch answers one validated search, buffered or streamed as the
// request's Accept header asks.
//
// Buffered, the body is computed through the response cache, whose
// compute guard turns a panic into a 500. Streamed (NDJSON), each row is
// written and flushed as run emits it, then the trailer: everything the
// buffered body carries but the rows, so reassembling the stream
// reproduces the buffered body byte for byte. A streamed search bypasses
// the response cache, since its rows leave before the result exists,
// but still shares the caches underneath; a client disconnect cancels
// the rest of the search through the request context.
//
// A buffered result is cached only when the key derived after the
// search equals the one it was computed under; a workload re-registered
// or deleted in between fails the request with a retryable 503 instead,
// whether the search itself succeeded or not.
//
// A failure before the first row is the request's status, the spec's
// own deadline expiring being a 503 that names it. After the first row
// the 200 is on the wire, so a live client gets the error as a final
// {"error": ...} row instead.
func serveSearch[P, R any](s *Server, w *httpfront.Writer, r *http.Request, q search[P, R]) {
	ctx := r.Context()
	if q.deadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(q.deadlineMS)*time.Millisecond)
		defer cancel()
	}
	compute := func(emit func(P) error) (R, error) {
		if s.panicHook != nil {
			s.panicHook(q.label)
		}
		return q.run(ctx, emit)
	}
	var (
		body []byte
		hit  bool
		res  R
		err  error
	)
	stream := httpfront.WantsNDJSON(r)
	if stream {
		res, err = func() (res R, err error) {
			// The stream runs outside the response cache, so it needs its
			// own panic net: worker panics arrive as PanicError through the
			// engine's guard, and this recover catches the handler
			// goroutine itself.
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("internal panic: %v", p)
				}
			}()
			return compute(func(pt P) error { return writeRow(w, pt) })
		}()
	} else {
		key, kerr := q.key()
		if kerr != nil {
			httpfront.WriteError(w, http.StatusInternalServerError, "%s", kerr)
			return
		}
		body, hit, err = s.cache.Do(key, func() ([]byte, error) {
			res, err := compute(nil)
			// A workload re-registered or deleted while the search ran
			// changes the key or leaves none to derive, and the result,
			// or the failure, may be of other content: it is neither
			// served nor cached under the old key.
			if now, kerr := q.key(); kerr != nil || now != key {
				return nil, experiments.ErrWorkloadChanged
			}
			if err != nil {
				return nil, err
			}
			return EncodeIndented(q.body(res))
		})
	}
	switch {
	case err == nil && stream:
		writeRow(w, q.trailer(res)) //folint:allow(errdrop) trailer ends the stream; a failed write means the client is gone and there is nothing left to send
	case err != nil && w.Code != 0:
		if r.Context().Err() == nil {
			//folint:allow(errdrop) final error row on a dying stream; a failed write means the client is gone too
			writeRow(w, httpfront.ErrorBody{Error: err.Error(), RequestID: w.ID})
		}
	case errors.Is(err, context.DeadlineExceeded) && q.deadlineMS > 0 && r.Context().Err() == nil:
		// The spec's own deadline is the client's limit, not the server's.
		httpfront.WriteError(w, http.StatusServiceUnavailable,
			"search exceeded the spec's %dms deadline", q.deadlineMS)
	default:
		s.finishCompute(w, body, hit, err)
	}
}

func (s *Server) handleSweep(w *httpfront.Writer, r *http.Request) {
	var spec experiments.SweepSpec
	if !decodeRequest(w, r, MaxBodyBytes, &spec) {
		return
	}
	// The cheap size cap comes before the per-value config checks.
	if cells := len(spec.Benches) * len(spec.Values); cells > 256 {
		httpfront.WriteError(w, http.StatusBadRequest, "sweep grid of %d cells exceeds the 256-cell limit", cells)
		return
	}
	if err := spec.ValidateFor(s.suite); err != nil {
		httpfront.WriteError(w, http.StatusBadRequest, "%s", err)
		return
	}
	serveSearch(s, w, r, search[experiments.SweepPoint, *experiments.SweepResult]{
		key:   func() (string, error) { return SweepCacheKey(spec, s.keys) },
		label: spec.Param,
		run: func(ctx context.Context, emit func(experiments.SweepPoint) error) (*experiments.SweepResult, error) {
			return experiments.SweepStream(ctx, s.suite, spec, emit)
		},
		body: func(res *experiments.SweepResult) any {
			return SweepResponse{SweepResult: res, Render: res.Render(), CSV: res.CSV()}
		},
		trailer: func(res *experiments.SweepResult) any {
			return SweepTrailer{Title: res.Title, Param: res.Param, MeanAbsErr: res.MeanAbsErr, Render: res.Render(), CSV: res.CSV()}
		},
	})
}

// WorkloadInfo is one benchmark's model-facing trace statistics, as
// reported by /v1/workloads.
type WorkloadInfo struct {
	Name         string  `json:"name"`
	Instructions int     `json:"instructions"`
	Alpha        float64 `json:"alpha"`
	Beta         float64 `json:"beta"`
	R2           float64 `json:"r2"`
	AvgLatency   float64 `json:"avg_latency"`
	// BranchesPerInstr and MispredictRate describe the branch behaviour;
	// the *PerKI rates are miss events per thousand instructions.
	BranchesPerInstr float64 `json:"branches_per_instr"`
	MispredictRate   float64 `json:"mispredict_rate"`
	ICacheShortPerKI float64 `json:"icache_short_per_ki"`
	ICacheLongPerKI  float64 `json:"icache_long_per_ki"`
	DCacheShortPerKI float64 `json:"dcache_short_per_ki"`
	DCacheLongPerKI  float64 `json:"dcache_long_per_ki"`
	OverlapFactor    float64 `json:"overlap_factor"`
}

// WorkloadsResponse is the /v1/workloads body.
type WorkloadsResponse struct {
	N         int            `json:"n"`
	Seed      uint64         `json:"seed"`
	Workloads []WorkloadInfo `json:"workloads"`
}

func (s *Server) handleWorkloads(w *httpfront.Writer, r *http.Request) {
	body, hit, err := s.cache.Do(WorkloadsCacheKey, func() ([]byte, error) {
		infos, err := experiments.MapWorkloads(s.suite, s.suite.Names, 1, func(wl *experiments.Workload, _ int) (WorkloadInfo, error) {
			sum := wl.Summary
			ki := float64(sum.Instructions) / 1000
			return WorkloadInfo{
				Name:             wl.Name,
				Instructions:     sum.Instructions,
				Alpha:            wl.Law.Alpha,
				Beta:             wl.Law.Beta,
				R2:               wl.Law.R2,
				AvgLatency:       sum.AvgLatency,
				BranchesPerInstr: float64(sum.Branches) / float64(sum.Instructions),
				MispredictRate:   sum.MispredictRate(),
				ICacheShortPerKI: float64(sum.ICacheShort) / ki,
				ICacheLongPerKI:  float64(sum.ICacheLong) / ki,
				DCacheShortPerKI: float64(sum.DCacheShort) / ki,
				DCacheLongPerKI:  float64(sum.DCacheLong) / ki,
				OverlapFactor:    sum.OverlapFactor(),
			}, nil
		}, nil)
		if err != nil {
			return nil, err
		}
		body, err := EncodeIndented(WorkloadsResponse{N: s.cfg.N, Seed: s.cfg.Seed, Workloads: infos})
		if err != nil {
			return nil, err
		}
		return body, nil
	})
	s.finishCompute(w, body, hit, err)
}

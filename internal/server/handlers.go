package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"fomodel/internal/experiments"
	"fomodel/internal/httpfront"
	"fomodel/internal/reqkey"
	"fomodel/internal/workload"
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
	req.Content = ""
	if _, err := workload.ByName(req.Bench); err != nil {
		hash := ""
		ok := false
		if d.Resolver != nil {
			hash, ok = d.Resolver.WorkloadContent(req.Bench)
		}
		if !ok {
			return err
		}
		req.Content = hash
	}
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
	if err := req.Normalize(s.cfg.KeyDefaults()); err != nil {
		httpfront.WriteError(w, http.StatusBadRequest, "%s", err)
		return
	}
	job, err := newPredictJob(req)
	if err != nil {
		httpfront.WriteError(w, http.StatusBadRequest, "%s", err)
		return
	}
	key, err := PredictCacheKey(req, s.cfg.KeyDefaults())
	if err != nil {
		httpfront.WriteError(w, http.StatusInternalServerError, "%s", err)
		return
	}
	body, hit, err := s.predictBody(r.Context(), key, job)
	s.noteRegisteredUse(req.Bench, hit)
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

// ndjsonContentType is the streamed sweep's media type; requests opt in
// by listing it in the Accept header.
const ndjsonContentType = "application/x-ndjson"

// wantsNDJSON reports whether the request asked for a streamed sweep.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), ndjsonContentType)
}

// writeRow writes v as one row of a streamed NDJSON response and flushes
// it; the first row sends the 200 and the content type.
func writeRow(w *httpfront.Writer, v any) error {
	row, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if w.Code == 0 {
		w.Header().Set("Content-Type", ndjsonContentType)
		w.WriteHeader(http.StatusOK)
	}
	if _, err := w.Write(append(row, '\n')); err != nil {
		return err
	}
	w.Flush()
	return nil
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
	if wantsNDJSON(r) {
		s.streamSweep(w, r, spec)
		return
	}
	key, err := SweepCacheKey(spec, s.cfg.KeyDefaults())
	if err != nil {
		httpfront.WriteError(w, http.StatusInternalServerError, "%s", err)
		return
	}
	ctx := r.Context()
	body, hit, err := s.cache.Do(key, func() ([]byte, error) {
		if s.panicHook != nil {
			s.panicHook(spec.Param)
		}
		res, err := experiments.Sweep(ctx, s.suite, spec)
		if err != nil {
			return nil, err
		}
		body, err := EncodeIndented(SweepResponse{
			SweepResult: res,
			Render:      res.Render(),
			CSV:         res.CSV(),
		})
		if err != nil {
			return nil, err
		}
		return body, nil
	})
	s.finishCompute(w, body, hit, err)
}

// streamSweep is the NDJSON sweep mode: one compact SweepPoint row per
// grid cell, flushed as the cell completes, then one SweepTrailer row
// with the sweep-level fields. Streamed responses bypass the response
// cache (rows leave before the result exists) but still share the
// suite's workload and prep caches. A client disconnect cancels the
// remaining grid cells through the request context; a failure after the
// first row has been sent is reported as a final {"error": ...} row,
// since the 200 header is already on the wire.
func (s *Server) streamSweep(w *httpfront.Writer, r *http.Request, spec experiments.SweepSpec) {
	ctx := r.Context()
	res, err := func() (res *experiments.SweepResult, err error) {
		// The streamed path runs outside the response cache, so it needs
		// its own panic net: worker panics arrive here as PanicError via
		// the engine's guard, and this recover catches the handler
		// goroutine itself, turning both into a structured error instead
		// of a severed connection.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("internal panic: %v", r)
			}
		}()
		if s.panicHook != nil {
			s.panicHook(spec.Param)
		}
		return experiments.SweepStream(ctx, s.suite, spec, func(pt experiments.SweepPoint) error {
			return writeRow(w, pt)
		})
	}()
	if err != nil {
		if w.Code == 0 {
			// Nothing sent yet: fail the request with its real status.
			s.finishCompute(w, nil, false, err)
			return
		}
		if ctx.Err() == nil {
			// Mid-stream failure with a live client: the status line is
			// gone, so the error travels as the final row.
			//folint:allow(errdrop) final error row on a dying stream; a failed write means the client is gone too
			writeRow(w, httpfront.ErrorBody{Error: err.Error()})
		}
		return
	}
	writeRow(w, SweepTrailer{ //folint:allow(errdrop) trailer ends the stream; a failed write means the client is gone and there is nothing left to send
		Title:      res.Title,
		Param:      res.Param,
		MeanAbsErr: res.MeanAbsErr,
		Render:     res.Render(),
		CSV:        res.CSV(),
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
		infos, err := experiments.MapWorkloads(s.suite, func(wl *experiments.Workload) (WorkloadInfo, error) {
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
		})
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

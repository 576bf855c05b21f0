package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"fomodel/internal/experiments"
	"fomodel/internal/httpfront"
)

// MaxBatchItems bounds one /v1/batch request. A batch occupies a single
// admission slot regardless of size, so the item bound (together with
// the worker pool) is what keeps one request from monopolizing the
// server.
const MaxBatchItems = 256

// MaxBatchBodyBytes bounds the /v1/batch request body; a full batch of
// MaxBatchItems small JSON objects fits comfortably.
const MaxBatchBodyBytes = 1 << 20

// BatchRequest is the /v1/batch body: many independent predict requests
// evaluated in one round trip.
type BatchRequest struct {
	Items []PredictRequest `json:"items"`
}

// BatchItem is one item's outcome. Items are isolated: a bad or failing
// item reports its status and error in place while the others complete
// normally.
type BatchItem struct {
	// Status is the HTTP status the equivalent /v1/predict call would
	// have returned for this item.
	Status int `json:"status"`
	// Cache is "hit" or "miss" for 200 items — the item's own
	// response-cache participation, shared with /v1/predict.
	Cache string `json:"cache,omitempty"`
	// Body holds, for 200 items, the exact bytes of the equivalent
	// /v1/predict response (indented JSON, trailing newline included),
	// so batch and single-shot consumers can never observe different
	// predictions for the same request.
	Body string `json:"body,omitempty"`
	// Error is the error message for non-200 items.
	Error string `json:"error,omitempty"`
}

// BatchResponse is the /v1/batch body: one result per request item, in
// request order.
type BatchResponse struct {
	Items []BatchItem `json:"items"`
}

// handleBatch fans the items out across the experiment engine's worker
// pool. Each item participates in the response cache under the same key
// as the equivalent /v1/predict request, and item failures — including
// panics inside pooled workers — are isolated to the item's slot.
func (s *Server) handleBatch(w *httpfront.Writer, r *http.Request) {
	var req BatchRequest
	if !decodeRequest(w, r, MaxBatchBodyBytes, &req) {
		return
	}
	if len(req.Items) == 0 {
		httpfront.WriteError(w, http.StatusBadRequest, "batch needs at least one item")
		return
	}
	if len(req.Items) > MaxBatchItems {
		httpfront.WriteError(w, http.StatusBadRequest,
			"batch of %d items exceeds the %d-item limit", len(req.Items), MaxBatchItems)
		return
	}

	ctx := r.Context()
	items := make([]BatchItem, 0, len(req.Items))
	err := experiments.RunOrdered(s.cfg.Workers, len(req.Items),
		func(i int) (BatchItem, error) {
			// Batch-level context errors abort the whole request (there
			// is no per-item answer worth assembling for a vanished or
			// timed-out client); everything else stays in the item.
			if err := ctx.Err(); err != nil {
				return BatchItem{}, err
			}
			return s.batchItem(ctx, req.Items[i])
		},
		func(_ int, item BatchItem) error {
			items = append(items, item)
			return nil
		})
	if err != nil {
		s.finishComputeState(w, nil, "", err)
		return
	}
	body, err := EncodeIndented(BatchResponse{Items: items})
	s.finishComputeState(w, body, "", err)
}

// badItem is a 400 outcome for one batch item.
func badItem(err error) BatchItem {
	return BatchItem{Status: http.StatusBadRequest, Error: err.Error()}
}

// batchItem evaluates one predict request, mapping every per-item
// failure mode onto the item itself; only context errors (client gone,
// batch deadline) escape as errors, aborting the whole batch. It
// recovers panics — its own and, via the response cache's compute
// guard, those of joined computations — so a poisoned item surfaces as
// a 500 in its slot instead of killing the pooled worker goroutine.
func (s *Server) batchItem(ctx context.Context, req PredictRequest) (item BatchItem, ctxErr error) {
	defer func() {
		if r := recover(); r != nil {
			item = BatchItem{
				Status: http.StatusInternalServerError,
				Error:  fmt.Sprintf("internal panic: %v", r),
			}
		}
	}()
	if err := req.Normalize(s.cfg.KeyDefaults()); err != nil {
		return badItem(err), nil
	}
	job, err := newPredictJob(req)
	if err != nil {
		return badItem(err), nil
	}
	key, err := PredictCacheKey(req, s.cfg.KeyDefaults())
	if err != nil {
		return BatchItem{Status: http.StatusInternalServerError, Error: err.Error()}, nil
	}
	body, hit, err := s.predictBody(ctx, key, job)
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return BatchItem{}, err
	case err != nil:
		return BatchItem{Status: http.StatusInternalServerError, Error: err.Error()}, nil
	}
	s.noteRegisteredUse(req.Bench, hit)
	cache := "miss"
	if hit {
		cache = "hit"
	}
	return BatchItem{Status: http.StatusOK, Cache: cache, Body: string(body)}, nil
}

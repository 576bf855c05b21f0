package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"fomodel/internal/reqkey"
	"fomodel/internal/server"
)

// Body bounds mirror the daemon's: the proxy must read a body to key it,
// so it enforces the same limits up front rather than shipping an
// oversized body upstream only to have it rejected there.
const (
	maxBodyBytes      = 1 << 16
	maxBatchBodyBytes = 1 << 20
	maxBatchItems     = 256
)

// statusCodeClientGone mirrors the daemon's 499 log convention.
const statusCodeClientGone = 499

// Mode names the active routing policy.
func (rt *Router) Mode() string {
	if rt.cfg.RoundRobin {
		return "roundrobin"
	}
	return "hash"
}

// Handler returns the proxy's routing table: the daemon's /v1 surface
// verbatim, plus the proxy's own health, readiness, and metrics.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", rt.instrument("/v1/predict", rt.handlePredict))
	mux.HandleFunc("POST /v1/batch", rt.instrument("/v1/batch", rt.handleBatch))
	mux.HandleFunc("POST /v1/sweep", rt.instrument("/v1/sweep", rt.handleSweep))
	mux.HandleFunc("POST /v1/optimize", rt.instrument("/v1/optimize", rt.handleOptimize))
	mux.HandleFunc("GET /v1/workloads", rt.instrument("/v1/workloads", rt.handleWorkloads))
	mux.HandleFunc("POST /v1/workloads/{name}", rt.instrument("/v1/workloads/{name}", rt.handleWorkloadRegister))
	mux.HandleFunc("GET /v1/workloads/{name}", rt.instrument("/v1/workloads/{name}", rt.handleWorkloadGet))
	mux.HandleFunc("DELETE /v1/workloads/{name}", rt.instrument("/v1/workloads/{name}", rt.handleWorkloadDelete))
	mux.HandleFunc("GET /healthz", rt.instrument("/healthz", rt.handleHealthz))
	mux.HandleFunc("GET /readyz", rt.instrument("/readyz", rt.handleReadyz))
	mux.HandleFunc("GET /metrics", rt.instrument("/metrics", rt.handleMetrics))
	return mux
}

// statusWriter records what a handler wrote, for the access log and the
// per-path counters, and forwards Flush for streamed relays.
type statusWriter struct {
	http.ResponseWriter
	code    int
	bytes   int
	replica string
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with request-ID issuance (satellite of the
// routed design: every request entering the fleet carries an ID from
// here on, echoed by every replica it is tried on),
// the latency histogram, per-path/per-code counters, and one structured
// log line.
func (rt *Router) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = rt.nextRequestID()
			r.Header.Set("X-Request-ID", id)
		}
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		elapsed := time.Since(begin)
		rt.latency.Observe(elapsed.Seconds())
		rt.requestCounter(path, sw.code).Inc()
		attrs := []any{
			"path", path,
			"status", sw.code,
			"dur_ms", elapsed.Milliseconds(),
			"bytes", sw.bytes,
			"request_id", id,
		}
		if sw.replica != "" {
			attrs = append(attrs, "replica", sw.replica)
		}
		rt.log.Info("request", attrs...)
	}
}

// errorResponse is the proxy's own error body — the same shape the
// daemon uses, so clients parse one error format for the whole fleet.
type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func (rt *Router) writeError(w http.ResponseWriter, r *http.Request, code int, format string, args ...any) {
	resp := errorResponse{
		Error:     fmt.Sprintf(format, args...),
		RequestID: r.Header.Get("X-Request-ID"),
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//folint:allow(errdrop) errorResponse is two plain strings; Marshal cannot fail on it
	body, _ := json.Marshal(resp)
	//folint:allow(errdrop) error-response write: the client may already be gone, and there is no fallback channel
	w.Write(append(body, '\n'))
}

// writeForwardError maps a forward or fanout failure onto a
// proxy-originated response: 502 when every attempt failed at the
// transport, 499-for-the-log when the client itself vanished, and 503
// (with Retry-After) for a fanout's errNoReplicas guard.
func (rt *Router) writeForwardError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		if sw, ok := w.(*statusWriter); ok {
			sw.code = statusCodeClientGone
		}
	case errors.Is(err, errNoReplicas):
		w.Header().Set("Retry-After", "1")
		rt.writeError(w, r, http.StatusServiceUnavailable, "no replicas available")
	default:
		rt.writeError(w, r, http.StatusBadGateway, "upstream request failed: %v", err)
	}
}

// readBody reads the (bounded) request body, answering 413/400 itself on
// failure; the limits and messages match the daemon's so the error a
// client sees does not depend on whether a proxy sits in front.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, limit))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			rt.writeError(w, r, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", limit)
		} else {
			rt.writeError(w, r, http.StatusBadRequest, "invalid request body: %v", err)
		}
		return nil, false
	}
	return raw, true
}

// forwardHeader is the header set shipped with every upstream attempt:
// the request ID minted (or accepted) by instrument, plus the caller's
// tenant so replicated workload writes land under the right owner.
func forwardHeader(r *http.Request) http.Header {
	h := http.Header{}
	if id := r.Header.Get("X-Request-ID"); id != "" {
		h.Set("X-Request-ID", id)
	}
	if t := r.Header.Get("X-Tenant"); t != "" {
		h.Set("X-Tenant", t)
	}
	return h
}

// proxyOne forwards one request by key and relays the winning response.
func (rt *Router) proxyOne(w http.ResponseWriter, r *http.Request, method, path string, body []byte, stream bool, key string) {
	resp, rep, err := rt.forward(r.Context(), method, path, body, forwardHeader(r), stream, key)
	if err != nil {
		rt.writeForwardError(w, r, err)
		return
	}
	if sw, ok := w.(*statusWriter); ok {
		sw.replica = rep.url
	}
	if resp.Header.Get("X-Cache") == "hit" {
		rep.hits.Inc()
	}
	rt.relay(w, r, resp, stream)
}

// relay copies the upstream response to the client verbatim: status,
// the daemon's meaningful headers, and the body byte for byte — which is
// what makes a proxied 200 indistinguishable from the daemon's own.
// Streamed relays flush per read so NDJSON rows keep their per-cell
// arrival; a mid-stream upstream failure with a live client becomes a
// final {"error": ...} row, matching the daemon's own mid-stream
// convention.
func (rt *Router) relay(w http.ResponseWriter, r *http.Request, resp *http.Response, stream bool) {
	defer resp.Body.Close()
	for _, k := range []string{"Content-Type", "X-Cache", "Retry-After"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if !stream {
		//folint:allow(errdrop) a short relay copy means the client vanished; the deferred Close cancels the upstream
		io.Copy(w, resp.Body)
		return
	}
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				// Client gone; closing the body (deferred) cancels the
				// upstream attempt through its context.
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			if r.Context().Err() == nil {
				row, _ := json.Marshal(errorResponse{ //folint:allow(errdrop) errorResponse is two plain strings; Marshal cannot fail on it
					Error:     fmt.Sprintf("upstream failed mid-stream: %v", err),
					RequestID: r.Header.Get("X-Request-ID"),
				})
				//folint:allow(errdrop) final error row on a stream whose status line is gone; nothing can be done for a dead client
				w.Write(append(row, '\n'))
			}
			return
		}
	}
}

func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r, maxBodyBytes)
	if !ok {
		return
	}
	rt.proxyOne(w, r, http.MethodPost, "/v1/predict", body, false, rt.predictKey(body))
}

func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r, maxBodyBytes)
	if !ok {
		return
	}
	stream := strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
	rt.proxyOne(w, r, http.MethodPost, "/v1/sweep", body, stream, rt.sweepKey(body))
}

func (rt *Router) handleOptimize(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r, maxBodyBytes)
	if !ok {
		return
	}
	stream := strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
	rt.proxyOne(w, r, http.MethodPost, "/v1/optimize", body, stream, rt.optimizeKey(body))
}

func (rt *Router) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	rt.proxyOne(w, r, http.MethodGet, "/v1/workloads", nil, false, server.WorkloadsCacheKey)
}

// batchGroup is the slice of a batch owned by one replica shard.
type batchGroup struct {
	key   string // first member's canonical key; routes the sub-batch
	idxs  []int  // positions in the original request
	items []server.PredictRequest
}

// itemKey derives one batch item's canonical key, falling back to its
// raw bytes for items the daemon will reject anyway. The fallback is not
// counted in rawKeyRoutes, which counts routed bodies, not batch items.
func (rt *Router) itemKey(item server.PredictRequest) string {
	key, err := server.PredictCacheKey(item, rt.cfg.Defaults)
	if err != nil {
		//folint:allow(errdrop) a failed Marshal leaves b empty; the raw key is still deterministic
		b, _ := json.Marshal(item)
		return reqkey.Raw("predict", b)
	}
	return key
}

// handleBatch splits a batch by shard owner, fans the sub-batches to
// their replicas concurrently, and reassembles the per-item results in
// request order, re-encoding with the daemon's own encoder so the
// response is byte-equal to a single daemon's. Requests the proxy cannot
// decode — and whole-batch shape errors (empty, oversized) — are
// forwarded intact so the daemon's error responses stay authoritative.
// In round-robin mode batches are not split (nor keyed): the baseline
// policy is deliberately cache-oblivious.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r, maxBatchBodyBytes)
	if !ok {
		return
	}
	if rt.cfg.RoundRobin {
		rt.proxyOne(w, r, http.MethodPost, "/v1/batch", body, false, "")
		return
	}
	var breq server.BatchRequest
	if err := strictDecode(body, &breq); err != nil || len(breq.Items) == 0 || len(breq.Items) > maxBatchItems {
		rt.proxyOne(w, r, http.MethodPost, "/v1/batch", body, false, rt.rawKey("batch", body))
		return
	}

	byOwner := make(map[int]*batchGroup)
	var groups []*batchGroup
	for i, item := range breq.Items {
		k := rt.itemKey(item)
		o := rt.ring.owner(k)
		g := byOwner[o]
		if g == nil {
			g = &batchGroup{key: k}
			byOwner[o] = g
			groups = append(groups, g)
		}
		g.idxs = append(g.idxs, i)
		g.items = append(g.items, item)
	}
	if len(groups) == 1 {
		// Single-shard batch: relay the original body untouched.
		rt.proxyOne(w, r, http.MethodPost, "/v1/batch", body, false, groups[0].key)
		return
	}

	out := make([]server.BatchItem, len(breq.Items))
	hdr := forwardHeader(r)
	var (
		mu       sync.Mutex
		failResp *http.Response // first non-200 sub-response, relayed verbatim
		failErr  error
		wg       sync.WaitGroup
	)
	for _, g := range groups {
		wg.Add(1)
		go func(g *batchGroup) {
			defer wg.Done()
			payload, err := json.Marshal(server.BatchRequest{Items: g.items})
			if err != nil {
				mu.Lock()
				if failErr == nil {
					failErr = err
				}
				mu.Unlock()
				return
			}
			resp, rep, err := rt.forward(r.Context(), http.MethodPost, "/v1/batch", payload, hdr, false, g.key)
			if err != nil {
				mu.Lock()
				if failErr == nil {
					failErr = err
				}
				mu.Unlock()
				return
			}
			if resp.StatusCode != http.StatusOK {
				mu.Lock()
				if failResp == nil {
					failResp = resp
					mu.Unlock()
					return
				}
				mu.Unlock()
				//folint:allow(errdrop) best-effort drain so the connection can be reused; a failure only costs the keep-alive
				io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
				resp.Body.Close() //folint:allow(errdrop) read-side close after a drain; there is nothing to act on
				return
			}
			var br server.BatchResponse
			decErr := json.NewDecoder(resp.Body).Decode(&br)
			resp.Body.Close() //folint:allow(errdrop) read-side close; the decode error above is the meaningful one
			if decErr != nil || len(br.Items) != len(g.items) {
				mu.Lock()
				if failErr == nil {
					failErr = fmt.Errorf("replica %s returned a malformed batch response", rep.url)
				}
				mu.Unlock()
				return
			}
			for j, idx := range g.idxs {
				out[idx] = br.Items[j]
			}
		}(g)
	}
	wg.Wait()

	switch {
	case failResp != nil:
		// A daemon answered with a batch-level error; its response is
		// authoritative for the whole request.
		rt.relay(w, r, failResp, false)
	case failErr != nil:
		rt.writeForwardError(w, r, failErr)
	default:
		respBody, err := server.EncodeIndented(server.BatchResponse{Items: out})
		if err != nil {
			rt.writeError(w, r, http.StatusInternalServerError, "%s", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		//folint:allow(errdrop) batch-response write: the client may already be gone, and there is no fallback channel
		w.Write(respBody)
	}
}

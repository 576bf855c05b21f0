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

	"fomodel/internal/httpfront"
	"fomodel/internal/reqkey"
	"fomodel/internal/server"
)

// Handler returns the proxy's routing table: the daemon's /v1 surface
// verbatim, plus the proxy's own health, readiness, and metrics. Every
// request entering the fleet through it carries an X-Request-ID from
// here on, minted when the client sent none and echoed by every replica
// it is tried on.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	for pattern, h := range map[string]httpfront.HandlerFunc{
		"POST /v1/predict":            rt.handlePredict,
		"POST /v1/batch":              rt.handleBatch,
		"POST /v1/sweep":              rt.handleSweep,
		"POST /v1/optimize":           rt.handleOptimize,
		"GET /v1/workloads":           rt.handleWorkloads,
		"POST /v1/workloads/{name}":   rt.handleWorkloadRegister,
		"GET /v1/workloads/{name}":    rt.handleWorkloadGet,
		"DELETE /v1/workloads/{name}": rt.handleWorkloadDelete,
		"GET /healthz":                rt.handleHealthz,
		"GET /readyz":                 rt.handleReadyz,
		"GET /metrics":                rt.handleMetrics,
	} {
		rt.front.Handle(mux, pattern, h)
	}
	return mux
}

// writeForwardError maps a forward or fanout failure onto a
// proxy-originated response: 502 when every attempt failed at the
// transport, 499-for-the-log when the client itself vanished, and 503
// (with Retry-After) for a fanout's errNoReplicas guard.
func writeForwardError(w *httpfront.Writer, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		w.Code = httpfront.StatusClientGone
	case errors.Is(err, errNoReplicas):
		w.Header().Set("Retry-After", "1")
		httpfront.WriteError(w, http.StatusServiceUnavailable, "no replicas available")
	default:
		httpfront.WriteError(w, http.StatusBadGateway, "upstream request failed: %v", err)
	}
}

// forwardHeader is the header set shipped with every upstream attempt:
// the request ID the front minted (or accepted), plus the caller's
// tenant so replicated workload writes land under the right owner.
func forwardHeader(r *http.Request) http.Header {
	h := http.Header{}
	if id := r.Header.Get(httpfront.RequestIDHeader); id != "" {
		h.Set(httpfront.RequestIDHeader, id)
	}
	if t := r.Header.Get("X-Tenant"); t != "" {
		h.Set("X-Tenant", t)
	}
	return h
}

// proxyOne forwards one request by key and relays the winning response.
func (rt *Router) proxyOne(w *httpfront.Writer, r *http.Request, method, path string, body []byte, stream bool, key string) {
	resp, rep, err := rt.forward(r.Context(), method, path, body, forwardHeader(r), stream, key)
	if err != nil {
		writeForwardError(w, err)
		return
	}
	w.Replica = rep.url
	if resp.Header.Get("X-Cache") == "hit" {
		rep.hits.Inc()
	}
	relay(w, r, resp, stream)
}

// relay copies the upstream response to the client verbatim: status,
// the daemon's meaningful headers, and the body byte for byte — which is
// what makes a proxied 200 indistinguishable from the daemon's own.
// Streamed relays flush per read so NDJSON rows keep their per-cell
// arrival; a mid-stream upstream failure with a live client becomes a
// final {"error": ...} row, matching the daemon's own mid-stream
// convention.
func relay(w *httpfront.Writer, r *http.Request, resp *http.Response, stream bool) {
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
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				// Client gone; closing the body (deferred) cancels the
				// upstream attempt through its context.
				return
			}
			w.Flush()
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			if r.Context().Err() == nil {
				//folint:allow(errdrop) final error row on a stream whose status line is gone; nothing can be done for a dead client
				w.Write(httpfront.ErrorRow(httpfront.ErrorBody{
					Error:     fmt.Sprintf("upstream failed mid-stream: %v", err),
					RequestID: w.ID,
				}))
			}
			return
		}
	}
}

func (rt *Router) handlePredict(w *httpfront.Writer, r *http.Request) {
	body, ok := httpfront.ReadBody(w, r, server.MaxBodyBytes)
	if !ok {
		return
	}
	rt.proxyOne(w, r, http.MethodPost, "/v1/predict", body, false, rt.predictKey(body))
}

func (rt *Router) handleSweep(w *httpfront.Writer, r *http.Request) {
	body, ok := httpfront.ReadBody(w, r, server.MaxBodyBytes)
	if !ok {
		return
	}
	stream := strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
	rt.proxyOne(w, r, http.MethodPost, "/v1/sweep", body, stream, rt.sweepKey(body))
}

func (rt *Router) handleOptimize(w *httpfront.Writer, r *http.Request) {
	body, ok := httpfront.ReadBody(w, r, server.MaxBodyBytes)
	if !ok {
		return
	}
	stream := strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
	rt.proxyOne(w, r, http.MethodPost, "/v1/optimize", body, stream, rt.optimizeKey(body))
}

func (rt *Router) handleWorkloads(w *httpfront.Writer, r *http.Request) {
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
func (rt *Router) handleBatch(w *httpfront.Writer, r *http.Request) {
	body, ok := httpfront.ReadBody(w, r, server.MaxBatchBodyBytes)
	if !ok {
		return
	}
	var breq server.BatchRequest
	if err := httpfront.DecodeStrict(body, &breq); err != nil || len(breq.Items) == 0 || len(breq.Items) > server.MaxBatchItems {
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
		relay(w, r, failResp, false)
	case failErr != nil:
		writeForwardError(w, failErr)
	default:
		respBody, err := server.EncodeIndented(server.BatchResponse{Items: out})
		if err != nil {
			httpfront.WriteError(w, http.StatusInternalServerError, "%s", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		//folint:allow(errdrop) batch-response write: the client may already be gone, and there is no fallback channel
		w.Write(respBody)
	}
}

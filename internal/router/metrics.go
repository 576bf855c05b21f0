package router

import (
	"encoding/json"
	"net/http"
	"time"

	"fomodel/internal/httpfront"
	"fomodel/internal/metrics"
)

// healthzReplica is one replica's state in the proxy's /healthz body.
type healthzReplica struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	InFlight int64  `json:"in_flight"`
	Requests int64  `json:"requests"`
	Hits     int64  `json:"hits"`
	Failures int64  `json:"failures"`
	Ejects   int64  `json:"ejects"`
	Readmits int64  `json:"readmits"`
}

// healthzResponse is the proxy's /healthz body: the per-replica view
// the router is acting on.
type healthzResponse struct {
	Status        string           `json:"status"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Replicas      []healthzReplica `json:"replicas"`
}

func (rt *Router) handleHealthz(w *httpfront.Writer, r *http.Request) {
	resp := healthzResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(rt.start).Seconds(),
	}
	for _, rep := range rt.reps {
		resp.Replicas = append(resp.Replicas, healthzReplica{
			URL:      rep.url,
			Healthy:  rep.healthy.Load(),
			InFlight: rep.inflight.Load(),
			Requests: rep.requests.Load(),
			Hits:     rep.hits.Load(),
			Failures: rep.failures.Load(),
			Ejects:   rep.ejects.Load(),
			Readmits: rep.readmits.Load(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //folint:allow(errdrop) status-response encode: the client may already be gone, and there is no fallback channel
}

// readyzResponse is the proxy's /readyz body.
type readyzResponse struct {
	Status          string `json:"status"`
	HealthyReplicas int    `json:"healthy_replicas"`
	Replicas        int    `json:"replicas"`
}

// handleReadyz answers whether the proxy can do useful work: ready as
// long as at least one replica is in rotation, 503 otherwise — the same
// contract the proxy itself applies to its replicas, so proxies stack.
func (rt *Router) handleReadyz(w *httpfront.Writer, r *http.Request) {
	healthy := 0
	for _, rep := range rt.reps {
		if rep.healthy.Load() {
			healthy++
		}
	}
	resp := readyzResponse{Status: "ready", HealthyReplicas: healthy, Replicas: len(rt.reps)}
	w.Header().Set("Content-Type", "application/json")
	if healthy == 0 {
		resp.Status = "no healthy replicas"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(resp) //folint:allow(errdrop) readyz encode: the client may already be gone, and there is no fallback channel
}

// handleMetrics renders the proxy's counters in the Prometheus text
// exposition format, replica-labeled where per-replica.
func (rt *Router) handleMetrics(w *httpfront.Writer, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	x := metrics.NewExposition(w, "fomodelproxy_")
	x.Uptime("Time since the proxy started.", rt.start)
	x.Requests(&rt.front.Requests)

	urls := make([]string, len(rt.reps))
	for i, rep := range rt.reps {
		urls[i] = rep.url
	}
	for _, m := range []struct {
		name, typ, help string
		value           func(*replica) int64
	}{
		{"replica_requests_total", "counter", "Upstream attempts sent to the replica.",
			func(r *replica) int64 { return r.requests.Load() }},
		{"replica_cache_hits_total", "counter", "Relayed responses the replica served from its cache.",
			func(r *replica) int64 { return r.hits.Load() }},
		{"replica_failures_total", "counter", "Transport-level failures talking to the replica.",
			func(r *replica) int64 { return r.failures.Load() }},
		{"replica_ejections_total", "counter", "Times the replica was removed from rotation.",
			func(r *replica) int64 { return r.ejects.Load() }},
		{"replica_readmissions_total", "counter", "Times a /readyz probe re-admitted the replica.",
			func(r *replica) int64 { return r.readmits.Load() }},
		{"replica_healthy", "gauge", "Whether the replica is in rotation (1) or ejected (0).",
			func(r *replica) int64 {
				if r.healthy.Load() {
					return 1
				}
				return 0
			}},
		{"replica_in_flight", "gauge", "Upstream attempts currently executing at the replica.",
			func(r *replica) int64 { return r.inflight.Load() }},
	} {
		x.Labeled(m.name, m.typ, m.help, "replica", urls, func(i int) int64 { return m.value(rt.reps[i]) })
	}

	x.Gauge("workload_mirror_size", "Registered-workload names the proxy currently resolves.", int64(rt.mirror.size()))
	x.Counter("fail_open_total", "Routings that fell back to ejected replicas because none was in rotation.", rt.failOpen.Load())
	x.Counter("raw_key_routes_total", "Request bodies routed by their raw bytes because no canonical key could be derived.", rt.rawKeyRoutes.Load())
	x.Counter("load_diversions_total", "Routings where the bounded-load cap put a ring successor ahead of the key's owner.", rt.loadDiversions.Load())
	x.Histogram("upstream_duration_seconds", "Time each forwarded request waited on replicas for response headers, summed over its attempts.", rt.upstream)
	x.Histogram("request_duration_seconds", "End-to-end proxy request latency.", rt.front.Latency)
}

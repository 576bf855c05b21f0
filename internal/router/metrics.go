package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

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

// healthzResponse is the proxy's /healthz body: the routing mode and
// the per-replica view the router is acting on.
type healthzResponse struct {
	Status        string           `json:"status"`
	Mode          string           `json:"mode"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Replicas      []healthzReplica `json:"replicas"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{
		Status:        "ok",
		Mode:          rt.Mode(),
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
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
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
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")

	fmt.Fprintf(w, "# HELP fomodelproxy_uptime_seconds Time since the proxy started.\n")
	fmt.Fprintf(w, "# TYPE fomodelproxy_uptime_seconds gauge\n")
	fmt.Fprintf(w, "fomodelproxy_uptime_seconds %.3f\n", time.Since(rt.start).Seconds())

	fmt.Fprintf(w, "# HELP fomodelproxy_requests_total Requests served, by path and status code.\n")
	fmt.Fprintf(w, "# TYPE fomodelproxy_requests_total counter\n")
	rt.reqMu.Lock()
	keys := make([]requestKey, 0, len(rt.requests))
	for k := range rt.requests {
		keys = append(keys, k)
	}
	rt.reqMu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].path != keys[j].path {
			return keys[i].path < keys[j].path
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		fmt.Fprintf(w, "fomodelproxy_requests_total{path=%q,code=\"%d\"} %d\n",
			k.path, k.code, rt.requestCounter(k.path, k.code).Load())
	}

	type repMetric struct {
		name, help string
		value      func(*replica) int64
	}
	for _, m := range []repMetric{
		{"fomodelproxy_replica_requests_total", "Upstream attempts sent to the replica.",
			func(r *replica) int64 { return r.requests.Load() }},
		{"fomodelproxy_replica_cache_hits_total", "Relayed responses the replica served from its cache.",
			func(r *replica) int64 { return r.hits.Load() }},
		{"fomodelproxy_replica_failures_total", "Transport-level failures talking to the replica.",
			func(r *replica) int64 { return r.failures.Load() }},
		{"fomodelproxy_replica_ejections_total", "Times the replica was removed from rotation.",
			func(r *replica) int64 { return r.ejects.Load() }},
		{"fomodelproxy_replica_readmissions_total", "Times a /readyz probe re-admitted the replica.",
			func(r *replica) int64 { return r.readmits.Load() }},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", m.name, m.help, m.name)
		for _, rep := range rt.reps {
			fmt.Fprintf(w, "%s{replica=%q} %d\n", m.name, rep.url, m.value(rep))
		}
	}

	fmt.Fprintf(w, "# HELP fomodelproxy_replica_healthy Whether the replica is in rotation (1) or ejected (0).\n")
	fmt.Fprintf(w, "# TYPE fomodelproxy_replica_healthy gauge\n")
	for _, rep := range rt.reps {
		v := 0
		if rep.healthy.Load() {
			v = 1
		}
		fmt.Fprintf(w, "fomodelproxy_replica_healthy{replica=%q} %d\n", rep.url, v)
	}
	fmt.Fprintf(w, "# HELP fomodelproxy_replica_in_flight Upstream attempts currently executing at the replica.\n")
	fmt.Fprintf(w, "# TYPE fomodelproxy_replica_in_flight gauge\n")
	for _, rep := range rt.reps {
		fmt.Fprintf(w, "fomodelproxy_replica_in_flight{replica=%q} %d\n", rep.url, rep.inflight.Load())
	}

	fmt.Fprintf(w, "# HELP fomodelproxy_workload_mirror_size Registered-workload names the proxy currently resolves.\n")
	fmt.Fprintf(w, "# TYPE fomodelproxy_workload_mirror_size gauge\n")
	fmt.Fprintf(w, "fomodelproxy_workload_mirror_size %d\n", rt.mirror.size())

	for _, c := range []struct {
		name, help string
		value      int64
	}{
		{"fomodelproxy_fail_open_total", "Routings that fell back to ejected replicas because none was in rotation.", rt.failOpen.Load()},
		{"fomodelproxy_raw_key_routes_total", "Request bodies routed by their raw bytes because no canonical key could be derived.", rt.rawKeyRoutes.Load()},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.value)
	}

	writeHistogram(w, "fomodelproxy_upstream_duration_seconds", "Time each forwarded request waited on replicas for response headers, summed over its attempts.", rt.upstream.Snapshot())
	writeHistogram(w, "fomodelproxy_request_duration_seconds", "End-to-end proxy request latency.", rt.latency.Snapshot())
}

// writeHistogram renders one histogram in the Prometheus text format.
func writeHistogram(w io.Writer, name, help string, snap metrics.HistogramSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for i, bound := range snap.Bounds {
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, bound, snap.Cumulative[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, snap.Count)
	fmt.Fprintf(w, "%s_sum %.6f\n", name, snap.Sum)
	fmt.Fprintf(w, "%s_count %d\n", name, snap.Count)
}

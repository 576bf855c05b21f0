package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one parsed Prometheus text exposition: every sample's value
// keyed by its series (metric name plus raw label set), and the number of
// lines that could not be parsed.
type scrape struct {
	series map[string]float64
	errors int
}

// parseMetrics parses Prometheus text format tolerantly: a malformed
// sample line is counted in errors and skipped instead of failing the
// whole scrape, so one bad line cannot hide every other counter.
func parseMetrics(text string) scrape {
	s := scrape{series: map[string]float64{}}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		key, rest, ok := splitSeries(line)
		if !ok {
			s.errors++
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 {
			s.errors++
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			s.errors++
			continue
		}
		s.series[key] = v
	}
	return s
}

// splitSeries splits a sample line into its series key and the text
// after it. Label values are quoted and may contain braces (a path label
// of "/v1/workloads/{name}"), so the closing brace is found by scanning
// outside quotes.
func splitSeries(line string) (key, rest string, ok bool) {
	i := strings.IndexAny(line, "{ \t")
	if i <= 0 {
		return "", "", false
	}
	if line[i] != '{' {
		return line[:i], line[i:], true
	}
	inQuote := false
	for j := i + 1; j < len(line); j++ {
		switch {
		case inQuote && line[j] == '\\':
			j++
		case line[j] == '"':
			inQuote = !inQuote
		case !inQuote && line[j] == '}':
			return line[:j+1], line[j+1:], true
		}
	}
	return "", "", false
}

// sum adds up every series of the named metric, whatever its labels.
func (s scrape) sum(name string) float64 {
	var total float64
	for k, v := range s.series {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// fetchMetrics scrapes base/metrics.
func fetchMetrics(ctx context.Context, base string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return scrape{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return scrape{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return scrape{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return scrape{}, fmt.Errorf("%s/metrics: status %d", base, resp.StatusCode)
	}
	return parseMetrics(string(body)), nil
}

// snapshot is one scrape of every process of a system: the daemons'
// series summed together, and the proxy's.
type snapshot struct {
	daemons, proxy scrape
	// errors counts unparsable lines plus scrapes that failed outright.
	errors int
}

func takeSnapshot(ctx context.Context, s *system) snapshot {
	snap := snapshot{daemons: scrape{series: map[string]float64{}}, proxy: scrape{series: map[string]float64{}}}
	for _, p := range s.daemons {
		sc, err := fetchMetrics(ctx, p.url)
		if err != nil {
			snap.errors++
			continue
		}
		snap.errors += sc.errors
		for k, v := range sc.series {
			snap.daemons.series[k] += v
		}
	}
	if s.proxy != nil {
		sc, err := fetchMetrics(ctx, s.proxy.url)
		if err != nil {
			snap.errors++
		} else {
			snap.errors += sc.errors
			snap.proxy = sc
		}
	}
	return snap
}

// delta is the change between two snapshots of one system.
type delta struct{ before, after snapshot }

func (d delta) daemon(name string) float64 {
	return d.after.daemons.sum(name) - d.before.daemons.sum(name)
}
func (d delta) proxy(name string) float64 { return d.after.proxy.sum(name) - d.before.proxy.sum(name) }

// ratio is num/den, or 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics derives the per-layer metrics that come from /metrics
// deltas. A layer absent from the system (no proxy, no store) reports 0
// with a base count of 0.
func (d delta) counterMetrics() map[string]float64 {
	m := map[string]float64{}
	service := ratio(d.daemon("fomodeld_request_duration_seconds_sum"), d.daemon("fomodeld_request_duration_seconds_count"))
	m["server.service_us_mean"] = service * 1e6
	hits, misses := d.daemon("fomodeld_response_cache_hits_total"), d.daemon("fomodeld_response_cache_misses_total")
	m["server.resp_cache_hit_ratio"], m["server.resp_cache_lookups"] = ratio(hits, hits+misses), hits+misses
	hits, misses = d.daemon("fomodeld_analysis_cache_hits_total"), d.daemon("fomodeld_analysis_cache_misses_total")
	m["server.analysis_cache_hit_ratio"], m["server.analysis_cache_lookups"] = ratio(hits, hits+misses), hits+misses
	m["server.trace_cache_evictions"] = d.daemon("fomodeld_trace_cache_evictions_total")
	m["server.shed_total"] = d.daemon("fomodeld_requests_shed_total")

	proxyMean := ratio(d.proxy("fomodelproxy_request_duration_seconds_sum"), d.proxy("fomodelproxy_request_duration_seconds_count"))
	upMean := ratio(d.proxy("fomodelproxy_upstream_duration_seconds_sum"), d.proxy("fomodelproxy_upstream_duration_seconds_count"))
	m["router.self_us_mean"] = (proxyMean - upMean) * 1e6
	up := d.proxy("fomodelproxy_replica_requests_total")
	m["router.hit_ratio"], m["router.upstream_requests"] = ratio(d.proxy("fomodelproxy_replica_cache_hits_total"), up), up
	m["router.hedges"] = d.proxy("fomodelproxy_replica_hedges_total")
	m["router.hedge_wins"] = d.proxy("fomodelproxy_hedge_wins_total")
	m["router.upstream_failures"] = d.proxy("fomodelproxy_replica_failures_total")

	hits, misses = d.daemon("fomodeld_artifact_store_hits_total"), d.daemon("fomodeld_artifact_store_misses_total")
	m["artifact.hit_ratio"], m["artifact.lookups"] = ratio(hits, hits+misses), hits+misses
	m["artifact.writes"] = d.daemon("fomodeld_artifact_store_writes_total")
	m["artifact.evictions"] = d.daemon("fomodeld_artifact_store_evictions_total")

	reuse, passes := d.daemon("fomodeld_prep_cache_reuses_total"), d.daemon("fomodeld_prep_cache_passes_total")
	m["uarch.prep_reuse_ratio"], m["uarch.prep_lookups"] = ratio(reuse, reuse+passes), reuse+passes
	return m
}

package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric. The two lists below are the
// contract BENCHMARK.json declares (a test keeps them equal): an untraced
// run reports every endToEnd metric, a traced run every perLayer one.
type metricDef struct {
	name, unit, better string
	// bound is the share by which an end-to-end metric's median may
	// worsen before a change counts as a regression: about three times
	// its worst IQR/median over ten seeds, and largest for setup_s.
	bound float64
}

var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "higher", 0.24},
	{"latency_p50_ms", "ms", "lower", 0.24},
	{"latency_p90_ms", "ms", "lower", 0.24},
	{"setup_s", "s", "lower", 0.25},
	{"rss_mb", "MiB", "lower", 0.24},
	{"cpu_ms_per_req", "ms", "lower", 0.24},
}

var perLayer = []metricDef{
	{"server.decode_normalize_us", "us", "lower", 0},
	{"server.encode_us", "us", "lower", 0},
	{"server.service_us_mean", "us", "lower", 0},
	{"server.resp_cache_hit_ratio", "ratio", "higher", 0},
	{"server.resp_cache_lookups", "count", "higher", 0},
	{"server.analysis_cache_hit_ratio", "ratio", "higher", 0},
	{"server.analysis_cache_lookups", "count", "higher", 0},
	{"server.trace_cache_evictions", "count", "lower", 0},
	{"server.shed_total", "count", "lower", 0},
	{"reqkey.predict_key_us", "us", "lower", 0},
	{"router.self_us_mean", "us", "lower", 0},
	{"router.hop_us", "us", "lower", 0},
	{"router.hit_ratio", "ratio", "higher", 0},
	{"router.upstream_requests", "count", "higher", 0},
	{"router.hedges", "count", "lower", 0},
	{"router.hedge_wins", "count", "higher", 0},
	{"router.upstream_failures", "count", "lower", 0},
	{"artifact.get_us", "us", "lower", 0},
	{"artifact.decode_gob_us", "us", "lower", 0},
	{"artifact.put_us", "us", "lower", 0},
	{"artifact.hit_ratio", "ratio", "higher", 0},
	{"artifact.lookups", "count", "higher", 0},
	{"artifact.writes", "count", "higher", 0},
	{"artifact.evictions", "count", "lower", 0},
	{"experiments.lookup_analysis_us", "us", "lower", 0},
	{"experiments.sweep_ms", "ms", "lower", 0},
	{"workload.generate_ms", "ms", "lower", 0},
	{"iw.characteristic_ms", "ms", "lower", 0},
	{"iw.fit_us", "us", "lower", 0},
	{"stats.analyze_ms", "ms", "lower", 0},
	{"core.inputs_us", "us", "lower", 0},
	{"core.estimate_us", "us", "lower", 0},
	{"uarch.simulate_ms", "ms", "lower", 0},
	{"uarch.classify_ms", "ms", "lower", 0},
	{"uarch.minstr_per_s", "Minstr/s", "higher", 0},
	{"uarch.prep_reuse_ratio", "ratio", "higher", 0},
	{"uarch.prep_lookups", "count", "higher", 0},
	{"model.cpi_err_pct", "%", "lower", 0},
	{"latency_p99_ms", "ms", "lower", 0},
	{"loadgen.cpu_share", "ratio", "lower", 0},
	{"scrape_errors", "count", "lower", 0},
	{"trace_overhead_pct", "%", "lower", 0},
}

// layerSpans maps the per-layer timing metrics to the replay span whose
// median self time they report, and the span duration unit.
var layerSpans = []struct {
	metric, span string
	unit         time.Duration
}{
	{"server.decode_normalize_us", "server.decode_normalize", time.Microsecond},
	{"server.encode_us", "server.EncodeIndented", time.Microsecond},
	{"reqkey.predict_key_us", "server.PredictCacheKey", time.Microsecond},
	{"artifact.get_us", "artifact.Store.Get", time.Microsecond},
	{"artifact.decode_gob_us", "artifact.DecodeGob", time.Microsecond},
	{"artifact.put_us", "artifact.Store.Put", time.Microsecond},
	{"experiments.lookup_analysis_us", "experiments.LookupAnalysis", time.Microsecond},
	{"experiments.sweep_ms", "experiments.Sweep", time.Millisecond},
	{"workload.generate_ms", "workload.Generate", time.Millisecond},
	{"iw.characteristic_ms", "iw.Characteristic", time.Millisecond},
	{"iw.fit_us", "iw.Fit", time.Microsecond},
	{"stats.analyze_ms", "stats.Analyze", time.Millisecond},
	{"core.inputs_us", "core.InputsFromCurve", time.Microsecond},
	{"core.estimate_us", "core.Machine.Estimate", time.Microsecond},
	{"uarch.simulate_ms", "uarch.PrepCache.Simulate", time.Millisecond},
}

// layerTimings derives the span-based per-layer metrics of one traced
// run at trace length n.
func layerTimings(stats []spanStats, n int) map[string]float64 {
	p50 := map[string]time.Duration{}
	for _, s := range stats {
		p50[s.name] = s.p50
	}
	m := map[string]float64{}
	for _, ls := range layerSpans {
		m[ls.metric] = float64(p50[ls.span]) / float64(ls.unit)
	}
	reused, fresh := p50["uarch.PrepCache.Simulate"], p50["uarch.PrepCache.Simulate.fresh"]
	m["uarch.classify_ms"] = float64(fresh-reused) / float64(time.Millisecond)
	if reused > 0 {
		m["uarch.minstr_per_s"] = float64(n) / reused.Seconds() / 1e6
	}
	return m
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so spreads printed here match an external check of the same
// values.
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0
	case 1:
		return d[0], d[0]
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func median(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 0 {
		return 0
	}
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

// finite replaces a non-finite value, which JSON cannot carry, with 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

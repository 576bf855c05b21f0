package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fomodel/internal/artifact"
	"fomodel/internal/experiments"
	"fomodel/internal/flight"
	"fomodel/internal/metrics"
	"fomodel/internal/registry"
	"fomodel/internal/trace"
	"fomodel/internal/workload"
)

// Config parameterizes the daemon. The zero value of every field selects
// a production-shaped default.
type Config struct {
	// N is the default dynamic instruction count per workload and Seed
	// the default generation seed; requests may override both. Defaults:
	// 500000 and 1, matching the CLI tools.
	N    int
	Seed uint64
	// Workers bounds the sweep fan-out pool (0 = GOMAXPROCS).
	Workers int
	// MaxInflight bounds concurrently executing /v1 requests; further
	// requests are shed with 429 rather than queued (0 = 2×GOMAXPROCS).
	MaxInflight int
	// CacheEntries bounds the response cache (0 = 1024).
	CacheEntries int
	// TraceCacheEntries bounds the non-default (n, seed) trace cache;
	// evicted traces release their prep-cache entries (0 = 64).
	TraceCacheEntries int
	// AnalysisCacheEntries bounds the in-memory analysis-bundle cache
	// (0 = 128).
	AnalysisCacheEntries int
	// RequestTimeout is the per-request computation deadline
	// (0 = 2 minutes).
	RequestTimeout time.Duration
	// Store, when non-nil, is the persistent workload-artifact store;
	// traces, analyses and classification preps are served from and
	// written to it, surviving restarts.
	Store *artifact.Store
	// Registry holds named custom workloads (POST /v1/workloads/{name});
	// nil selects a fresh registry with default quotas, persisted
	// through Store. Registered names are accepted anywhere a built-in
	// benchmark name is.
	Registry *registry.Registry
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 500000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.TraceCacheEntries <= 0 {
		c.TraceCacheEntries = 64
	}
	if c.AnalysisCacheEntries <= 0 {
		c.AnalysisCacheEntries = 128
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	return c
}

// statusCodeClientGone is the nginx-convention code logged when the
// client disconnected before a response could be written.
const statusCodeClientGone = 499

// Server is the fomodeld daemon: HTTP handlers plus the shared state
// they serve from (the experiment suite with its workload and prep
// caches, the response, analysis and trace caches, and the metrics
// counters).
type Server struct {
	cfg   Config
	log   *slog.Logger
	suite *experiments.Suite
	start time.Time

	// cache is the canonical-request response cache: finished response
	// bodies keyed by the canonicalized request. A response hit skips
	// everything; a miss still reuses the analysis, trace and prep
	// caches underneath.
	cache *flight.Cache[string, []byte]
	// analysis holds the in-memory analysis bundles keyed by content:
	// the trace's generation recipe plus the machine configuration
	// projection.
	analysis *flight.Cache[string, *experiments.AnalysisArtifact]
	// traces holds the non-default traces, keyed by content ID (recipe
	// for built-ins, profile content hash + recipe for registered
	// workloads). Evicting a trace releases its prep-cache entries.
	traces *flight.Cache[string, *trace.Trace]

	inflight metrics.Gauge
	shed     metrics.Counter
	latency  *metrics.Histogram
	slots    chan struct{}

	// notReady is set while the daemon should be kept out of routing
	// rotation (boot warm-up in flight); /readyz answers 503 until it
	// clears. Inverted so the zero value — ready — matches servers that
	// never warm.
	notReady atomic.Bool

	reqMu    sync.Mutex
	requests map[requestKey]*metrics.Counter

	// Per-registered-workload request/hit accounting, keyed by workload
	// name; populated only for names present in the registry, so the
	// maps are bounded by the registered population.
	regUseMu    sync.Mutex
	regRequests map[string]*metrics.Counter
	regHits     map[string]*metrics.Counter

	// Optimize-search instrumentation: candidate evaluations run (and
	// the share served by the response cache), refinement rounds, and
	// the most recent completed search's frontier size.
	optEvals    metrics.Counter
	optEvalHits metrics.Counter
	optRounds   metrics.Counter
	optFrontier metrics.Gauge

	// gate, when non-nil, blocks every admitted /v1 request until the
	// channel yields; tests use it to hold requests in flight
	// deterministically.
	gate chan struct{}
	// panicHook, when non-nil, runs inside sweep and batch computations
	// with the request's bench or parameter name; tests use it to inject
	// worker panics and pin the recovery path.
	panicHook func(name string)
}

type requestKey struct {
	path string
	code int
}

// New builds a server. A nil logger discards logs.
func New(cfg Config, log *slog.Logger) *Server {
	cfg = cfg.withDefaults()
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	suite := experiments.NewSuite(cfg.N, cfg.Seed)
	suite.Workers = cfg.Workers
	suite.SetStore(cfg.Store)
	if cfg.Registry == nil {
		cfg.Registry = registry.New(registry.Config{Store: cfg.Store})
	}
	suite.Lookup = cfg.Registry.Snapshot
	return &Server{
		cfg:      cfg,
		log:      log,
		suite:    suite,
		start:    time.Now(),
		cache:    flight.New[string, []byte](cfg.CacheEntries, nil),
		analysis: flight.New[string, *experiments.AnalysisArtifact](cfg.AnalysisCacheEntries, nil),
		// The evicted trace is about to become unreachable, so the prep
		// entries keyed to it could never be hit again.
		traces: flight.New(cfg.TraceCacheEntries, func(_ string, t *trace.Trace) {
			suite.Preps().Forget(t)
		}),
		latency:     metrics.NewHistogram(metrics.DefaultLatencyBounds()...),
		slots:       make(chan struct{}, cfg.MaxInflight),
		requests:    make(map[requestKey]*metrics.Counter),
		regRequests: make(map[string]*metrics.Counter),
		regHits:     make(map[string]*metrics.Counter),
	}
}

// Warm precomputes every default workload bundle, filling the suite's
// caches and — when a store is configured — persisting the trace,
// analysis, producer, and prep artifacts so the next process boots warm.
// It stops early when ctx is done.
func (s *Server) Warm(ctx context.Context) error {
	for _, name := range s.suite.Names {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := s.suite.Workload(name); err != nil {
			return fmt.Errorf("warm %s: %w", name, err)
		}
	}
	return nil
}

// Handler returns the daemon's routing table. /v1 endpoints pass through
// admission control (in-flight bound with 429 shedding) and carry a
// per-request deadline; /healthz and /metrics always answer.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.instrument("/v1/predict", true, s.handlePredict))
	mux.HandleFunc("POST /v1/batch", s.instrument("/v1/batch", true, s.handleBatch))
	mux.HandleFunc("POST /v1/sweep", s.instrument("/v1/sweep", true, s.handleSweep))
	mux.HandleFunc("POST /v1/optimize", s.instrument("/v1/optimize", true, s.handleOptimize))
	mux.HandleFunc("GET /v1/workloads", s.instrument("/v1/workloads", true, s.handleWorkloads))
	mux.HandleFunc("POST /v1/workloads/{name}", s.instrument("/v1/workloads/{name}", true, s.handleWorkloadRegister))
	mux.HandleFunc("GET /v1/workloads/{name}", s.instrument("/v1/workloads/{name}", true, s.handleWorkloadGet))
	mux.HandleFunc("DELETE /v1/workloads/{name}", s.instrument("/v1/workloads/{name}", true, s.handleWorkloadDelete))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", false, s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("/readyz", false, s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", false, s.handleMetrics))
	return mux
}

// statusWriter records the status code a handler wrote (or 499 when the
// client vanished first).
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
	// reqID is the request's X-Request-ID header, when the client (the
	// fomodelproxy router, typically) sent one; it is echoed into the
	// response headers, the structured request log, and error bodies so
	// one request that failed over or was retried can be traced across
	// replicas.
	reqID string
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

// Flush forwards to the underlying writer so streamed NDJSON rows reach
// the client per grid cell rather than buffering until the sweep ends.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with admission control (when limited),
// per-request deadline, the latency histogram, per-path/per-code request
// counters, and one structured log line per request.
func (s *Server) instrument(path string, limited bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		startReq := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		if id := r.Header.Get("X-Request-ID"); id != "" {
			sw.reqID = id
			w.Header().Set("X-Request-ID", id)
		}
		if limited {
			select {
			case s.slots <- struct{}{}:
				s.inflight.Add(1)
				defer func() {
					<-s.slots
					s.inflight.Add(-1)
				}()
			default:
				s.shed.Inc()
				w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
				s.writeError(sw, http.StatusTooManyRequests,
					"server saturated: %d requests already in flight", s.cfg.MaxInflight)
				s.finish(path, sw, startReq, "")
				return
			}
			if s.gate != nil {
				<-s.gate
			}
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(sw, r)
		s.finish(path, sw, startReq, w.Header().Get("X-Cache"))
	}
}

// retryAfterSeconds derives the 429 Retry-After value from observed
// service time: the mean request latency from the histogram, rounded up
// to whole seconds with a 1-second floor, so shed clients back off
// proportionally to how long requests are actually taking instead of
// hammering a saturated server once per second.
func (s *Server) retryAfterSeconds() int {
	snap := s.latency.Snapshot()
	if snap.Count == 0 {
		return 1
	}
	secs := int(math.Ceil(snap.Sum / float64(snap.Count)))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// finish records the request in the metrics and the structured log.
func (s *Server) finish(path string, sw *statusWriter, start time.Time, cacheState string) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	elapsed := time.Since(start)
	s.latency.Observe(elapsed.Seconds())
	s.requestCounter(path, sw.code).Inc()
	attrs := []any{
		"path", path,
		"status", sw.code,
		"dur_ms", elapsed.Milliseconds(),
		"bytes", sw.bytes,
	}
	if cacheState != "" {
		attrs = append(attrs, "cache", cacheState)
	}
	if sw.reqID != "" {
		attrs = append(attrs, "request_id", sw.reqID)
	}
	s.log.Info("request", attrs...)
}

// requestCounter returns the live counter for one (path, status) pair.
func (s *Server) requestCounter(path string, code int) *metrics.Counter {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	k := requestKey{path: path, code: code}
	c := s.requests[k]
	if c == nil {
		c = &metrics.Counter{}
		s.requests[k] = c
	}
	return c
}

// errorResponse is the structured error body of every non-200 response.
// RequestID is present only when the request carried an X-Request-ID
// header, so direct (headerless) requests keep their historical bodies.
type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	resp := errorResponse{Error: fmt.Sprintf(format, args...)}
	if sw, ok := w.(*statusWriter); ok {
		resp.RequestID = sw.reqID
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//folint:allow(errdrop) errorResponse is two plain strings; Marshal cannot fail on it
	body, _ := json.Marshal(resp)
	//folint:allow(errdrop) error-response write: the client may already be gone, and there is no fallback channel
	w.Write(append(body, '\n'))
}

// finishCompute maps a computation outcome onto the response: a body is
// written as-is with 200, context errors become 499 (client gone,
// nothing written) or 503 (deadline), and other failures become 500.
func (s *Server) finishCompute(w *statusWriter, body []byte, hit bool, err error) {
	cacheState := "miss"
	if hit {
		cacheState = "hit"
	}
	s.finishComputeState(w, body, cacheState, err)
}

// finishComputeState is finishCompute with an explicit cache state; an
// empty state omits the X-Cache header (batch responses report cache
// participation per item instead).
func (s *Server) finishComputeState(w *statusWriter, body []byte, cacheState string, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		// The client disconnected; there is no one to write to. Record
		// the conventional 499 for the log and metrics.
		w.code = statusCodeClientGone
	case errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, http.StatusServiceUnavailable,
			"request exceeded the %s computation deadline", s.cfg.RequestTimeout)
	case err != nil:
		s.writeError(w, http.StatusInternalServerError, "%s", err)
	default:
		if cacheState != "" {
			w.Header().Set("X-Cache", cacheState)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		//folint:allow(errdrop) response-body write: the client may already be gone, and there is no fallback channel
		w.Write(body)
	}
}

// resolvedWorkload is one request's workload identity after name
// resolution: the content ID that keys every cache and artifact, plus
// — for registered custom workloads — the profile snapshot to generate
// from. prof is nil for built-in benchmarks.
type resolvedWorkload struct {
	bench     string
	n         int
	seed      uint64
	contentID string
	prof      *workload.Profile
}

// resolveWorkload maps a normalized predict request onto its workload
// identity: built-in names key by the classic recipe ContentID,
// registered names by the profile's name-free CustomContentID — so two
// names registered with identical content share traces, analyses, and
// artifacts, while re-registered content changes every downstream key.
func (s *Server) resolveWorkload(req PredictRequest) (resolvedWorkload, error) {
	rw := resolvedWorkload{bench: req.Bench, n: req.N, seed: req.Seed}
	_, nameErr := workload.ByName(req.Bench)
	if nameErr == nil {
		rw.contentID = workload.ContentID(req.Bench, req.N, req.Seed)
		return rw, nil
	}
	if prof, hash, ok := s.cfg.Registry.Snapshot(req.Bench); ok {
		rw.prof = &prof
		rw.contentID = workload.CustomContentID(hash, req.N, req.Seed)
		return rw, nil
	}
	return rw, nameErr
}

// traceFor returns the resolved workload's trace, sharing the suite's
// workload bundle when the request uses the server defaults (so predict,
// sweep, and workload-listing traffic all hit one prep-cache keyspace)
// and a dedicated single-flight trace cache otherwise. The dedicated
// cache is a bounded LRU keyed by content ID: evicting a trace also
// releases the prep-cache entries it pinned, so sweeping many (n, seed)
// pairs cannot grow the server's footprint without bound. Traces load
// through the artifact store when one is configured; a trace the
// dedicated cache generates is written back only when persist is set,
// which callers set for simulator runs: a model-only request needs the
// trace once, for its analysis, and the store keeps that analysis
// instead. The suite's default-seed traces always persist.
func (s *Server) traceFor(rw resolvedWorkload, persist bool) (*trace.Trace, error) {
	if s.suiteTrace(rw) {
		// The suite resolves registered names through its own Lookup, so
		// this path serves built-ins and registered workloads alike.
		w, err := s.suite.Workload(rw.bench)
		if err != nil {
			return nil, err
		}
		return w.Trace, nil
	}
	t, _, err := s.traces.Do(rw.contentID, func() (*trace.Trace, error) {
		if rw.prof != nil {
			return experiments.LoadOrGenerateProfileTrace(s.cfg.Store, *rw.prof, rw.n, rw.seed, persist)
		}
		return experiments.LoadOrGenerateTrace(s.cfg.Store, rw.bench, rw.n, rw.seed, persist)
	})
	return t, err
}

// suiteTrace reports whether traceFor serves rw from the suite, which
// it does for the server's default length and seed.
func (s *Server) suiteTrace(rw resolvedWorkload) bool {
	return rw.n == s.cfg.N && rw.seed == s.cfg.Seed
}

// healthzResponse is the /healthz body.
type healthzResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workloads     int     `json:"workloads"`
	N             int     `json:"n"`
	Seed          uint64  `json:"seed"`
}

// SetReady flips the /readyz answer. The daemon boots ready unless its
// CLI starts a warm-up, in which case it is marked not-ready first and
// ready again when the warm-up completes — so a routing proxy keeps a
// cold replica (252µs–11ms per miss) out of the ring until its caches
// can actually serve the shard hot.
func (s *Server) SetReady(ready bool) {
	s.notReady.Store(!ready)
}

// Ready reports whether /readyz would answer 200.
func (s *Server) Ready() bool {
	return !s.notReady.Load()
}

// readyzResponse is the /readyz body.
type readyzResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// handleReadyz is the routing-readiness probe, distinct from /healthz:
// a live daemon that is still running its boot warm-up answers 503 here
// (and 200 on /healthz), telling the router "alive, but route my shard
// elsewhere for now".
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := readyzResponse{Status: "ready", UptimeSeconds: time.Since(s.start).Seconds()}
	w.Header().Set("Content-Type", "application/json")
	if !s.Ready() {
		resp.Status = "warming"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	//folint:allow(errdrop) readyz encode: the client may already be gone, and there is no fallback channel
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(healthzResponse{ //folint:allow(errdrop) healthz encode: the client may already be gone, and there is no fallback channel
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workloads:     len(workload.Names()),
		N:             s.cfg.N,
		Seed:          s.cfg.Seed,
	})
}

// writeCacheMetrics renders one flight cache's hit, miss, eviction and
// entry series as fomodeld_<name>_*; what names the cached things in
// the HELP text.
func writeCacheMetrics[K comparable, V any](w io.Writer, name, what string, c *flight.Cache[K, V]) {
	hits, misses, evictions := c.Stats()
	for _, m := range []struct {
		suffix, typ, help string
		v                 int64
	}{
		{"hits_total", "counter", "served from the cache, joins of a successful in-flight computation included.", hits},
		{"misses_total", "counter", "computed or loaded from the store because the cache had no entry.", misses},
		{"evictions_total", "counter", "evicted by the cache's LRU bound.", evictions},
		{"entries", "gauge", "currently cached, in-flight computations included.", int64(c.Len())},
	} {
		fmt.Fprintf(w, "# HELP fomodeld_%s_%s %s %s\n", name, m.suffix, what, m.help)
		fmt.Fprintf(w, "# TYPE fomodeld_%s_%s %s\n", name, m.suffix, m.typ)
		fmt.Fprintf(w, "fomodeld_%s_%s %d\n", name, m.suffix, m.v)
	}
}

// handleMetrics renders every counter in the Prometheus text exposition
// format. The prep-cache and suite counters are the very same
// metrics.Counter values the CLI's -timing flag prints — one counter
// type, one source, two surfaces.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")

	fmt.Fprintf(w, "# HELP fomodeld_uptime_seconds Time since the server started.\n")
	fmt.Fprintf(w, "# TYPE fomodeld_uptime_seconds gauge\n")
	fmt.Fprintf(w, "fomodeld_uptime_seconds %.3f\n", time.Since(s.start).Seconds())

	fmt.Fprintf(w, "# HELP fomodeld_requests_total Requests served, by path and status code.\n")
	fmt.Fprintf(w, "# TYPE fomodeld_requests_total counter\n")
	s.reqMu.Lock()
	keys := make([]requestKey, 0, len(s.requests))
	for k := range s.requests {
		keys = append(keys, k)
	}
	s.reqMu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].path != keys[j].path {
			return keys[i].path < keys[j].path
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		fmt.Fprintf(w, "fomodeld_requests_total{path=%q,code=\"%d\"} %d\n",
			k.path, k.code, s.requestCounter(k.path, k.code).Load())
	}

	fmt.Fprintf(w, "# HELP fomodeld_requests_in_flight API requests currently executing.\n")
	fmt.Fprintf(w, "# TYPE fomodeld_requests_in_flight gauge\n")
	fmt.Fprintf(w, "fomodeld_requests_in_flight %d\n", s.inflight.Load())

	fmt.Fprintf(w, "# HELP fomodeld_requests_shed_total Requests rejected with 429 by the in-flight limiter.\n")
	fmt.Fprintf(w, "# TYPE fomodeld_requests_shed_total counter\n")
	fmt.Fprintf(w, "fomodeld_requests_shed_total %d\n", s.shed.Load())

	writeCacheMetrics(w, "response_cache", "Responses", s.cache)
	writeCacheMetrics(w, "analysis_cache", "Predict analyses", s.analysis)
	writeCacheMetrics(w, "trace_cache", "Non-default traces", s.traces)

	prepHits, prepMisses := s.suite.Preps().Stats()
	fmt.Fprintf(w, "# HELP fomodeld_prep_cache_reuses_total Simulator runs that reused a cached classification pass.\n")
	fmt.Fprintf(w, "# TYPE fomodeld_prep_cache_reuses_total counter\n")
	fmt.Fprintf(w, "fomodeld_prep_cache_reuses_total %d\n", prepHits)
	fmt.Fprintf(w, "# HELP fomodeld_prep_cache_passes_total Classification passes computed.\n")
	fmt.Fprintf(w, "# TYPE fomodeld_prep_cache_passes_total counter\n")
	fmt.Fprintf(w, "fomodeld_prep_cache_passes_total %d\n", prepMisses)
	fmt.Fprintf(w, "# HELP fomodeld_prep_cache_evictions_total Prep-cache entries evicted by the LRU bound or trace eviction.\n")
	fmt.Fprintf(w, "# TYPE fomodeld_prep_cache_evictions_total counter\n")
	fmt.Fprintf(w, "fomodeld_prep_cache_evictions_total %d\n", s.suite.Preps().Evictions())
	fmt.Fprintf(w, "# HELP fomodeld_prep_cache_entries Classifications currently cached, one per trace and classification config.\n")
	fmt.Fprintf(w, "# TYPE fomodeld_prep_cache_entries gauge\n")
	fmt.Fprintf(w, "fomodeld_prep_cache_entries %d\n", s.suite.Preps().Len())

	fmt.Fprintf(w, "# HELP fomodeld_optimize_evaluations_total Model evaluations (candidate x workload) run by design-space searches.\n")
	fmt.Fprintf(w, "# TYPE fomodeld_optimize_evaluations_total counter\n")
	fmt.Fprintf(w, "fomodeld_optimize_evaluations_total %d\n", s.optEvals.Load())
	fmt.Fprintf(w, "# HELP fomodeld_optimize_evaluation_cache_hits_total Optimize evaluations answered by the response cache.\n")
	fmt.Fprintf(w, "# TYPE fomodeld_optimize_evaluation_cache_hits_total counter\n")
	fmt.Fprintf(w, "fomodeld_optimize_evaluation_cache_hits_total %d\n", s.optEvalHits.Load())
	fmt.Fprintf(w, "# HELP fomodeld_optimize_refinement_rounds_total Refinement rounds run by design-space searches.\n")
	fmt.Fprintf(w, "# TYPE fomodeld_optimize_refinement_rounds_total counter\n")
	fmt.Fprintf(w, "fomodeld_optimize_refinement_rounds_total %d\n", s.optRounds.Load())
	fmt.Fprintf(w, "# HELP fomodeld_optimize_frontier_size Frontier size of the most recent completed search.\n")
	fmt.Fprintf(w, "# TYPE fomodeld_optimize_frontier_size gauge\n")
	fmt.Fprintf(w, "fomodeld_optimize_frontier_size %d\n", s.optFrontier.Load())

	if reg := s.cfg.Registry; reg != nil {
		registers, deletes, rejects, persistErrors := reg.Stats()
		fmt.Fprintf(w, "# HELP fomodeld_registry_registrations_total Custom workloads registered (including replacements).\n")
		fmt.Fprintf(w, "# TYPE fomodeld_registry_registrations_total counter\n")
		fmt.Fprintf(w, "fomodeld_registry_registrations_total %d\n", registers)
		fmt.Fprintf(w, "# HELP fomodeld_registry_deletions_total Custom workloads deleted.\n")
		fmt.Fprintf(w, "# TYPE fomodeld_registry_deletions_total counter\n")
		fmt.Fprintf(w, "fomodeld_registry_deletions_total %d\n", deletes)
		fmt.Fprintf(w, "# HELP fomodeld_registry_rejections_total Registrations rejected by validation, collision, or quota.\n")
		fmt.Fprintf(w, "# TYPE fomodeld_registry_rejections_total counter\n")
		fmt.Fprintf(w, "fomodeld_registry_rejections_total %d\n", rejects)
		fmt.Fprintf(w, "# HELP fomodeld_registry_persist_errors_total Failed writes of the registry index to the artifact store.\n")
		fmt.Fprintf(w, "# TYPE fomodeld_registry_persist_errors_total counter\n")
		fmt.Fprintf(w, "fomodeld_registry_persist_errors_total %d\n", persistErrors)

		usage := reg.TenantUsage()
		tenants := make([]string, 0, len(usage))
		for t := range usage {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		fmt.Fprintf(w, "# HELP fomodeld_registry_workloads Registered workloads currently held, by tenant.\n")
		fmt.Fprintf(w, "# TYPE fomodeld_registry_workloads gauge\n")
		for _, t := range tenants {
			fmt.Fprintf(w, "fomodeld_registry_workloads{tenant=%q} %d\n", t, usage[t].Count)
		}
		fmt.Fprintf(w, "# HELP fomodeld_registry_bytes Encoded profile bytes currently held, by tenant.\n")
		fmt.Fprintf(w, "# TYPE fomodeld_registry_bytes gauge\n")
		for _, t := range tenants {
			fmt.Fprintf(w, "fomodeld_registry_bytes{tenant=%q} %d\n", t, usage[t].Bytes)
		}

		s.regUseMu.Lock()
		names := make([]string, 0, len(s.regRequests))
		for name := range s.regRequests {
			names = append(names, name)
		}
		s.regUseMu.Unlock()
		sort.Strings(names)
		fmt.Fprintf(w, "# HELP fomodeld_registered_workload_requests_total Predict evaluations referencing a registered workload, by name.\n")
		fmt.Fprintf(w, "# TYPE fomodeld_registered_workload_requests_total counter\n")
		for _, name := range names {
			fmt.Fprintf(w, "fomodeld_registered_workload_requests_total{workload=%q} %d\n",
				name, s.registeredUseCounter(s.regRequests, name).Load())
		}
		fmt.Fprintf(w, "# HELP fomodeld_registered_workload_cache_hits_total Registered-workload evaluations served from the response cache, by name.\n")
		fmt.Fprintf(w, "# TYPE fomodeld_registered_workload_cache_hits_total counter\n")
		for _, name := range names {
			fmt.Fprintf(w, "fomodeld_registered_workload_cache_hits_total{workload=%q} %d\n",
				name, s.registeredUseCounter(s.regHits, name).Load())
		}
	}

	if st := s.cfg.Store; st != nil {
		hits, misses, corrupt, writes, evictions := st.Stats()
		fmt.Fprintf(w, "# HELP fomodeld_artifact_store_hits_total Artifacts served from the persistent store.\n")
		fmt.Fprintf(w, "# TYPE fomodeld_artifact_store_hits_total counter\n")
		fmt.Fprintf(w, "fomodeld_artifact_store_hits_total %d\n", hits)
		fmt.Fprintf(w, "# HELP fomodeld_artifact_store_misses_total Store lookups that found no artifact.\n")
		fmt.Fprintf(w, "# TYPE fomodeld_artifact_store_misses_total counter\n")
		fmt.Fprintf(w, "fomodeld_artifact_store_misses_total %d\n", misses)
		fmt.Fprintf(w, "# HELP fomodeld_artifact_store_corrupt_total Artifacts rejected by checksum or framing validation.\n")
		fmt.Fprintf(w, "# TYPE fomodeld_artifact_store_corrupt_total counter\n")
		fmt.Fprintf(w, "fomodeld_artifact_store_corrupt_total %d\n", corrupt)
		fmt.Fprintf(w, "# HELP fomodeld_artifact_store_writes_total Artifacts written to the store.\n")
		fmt.Fprintf(w, "# TYPE fomodeld_artifact_store_writes_total counter\n")
		fmt.Fprintf(w, "fomodeld_artifact_store_writes_total %d\n", writes)
		fmt.Fprintf(w, "# HELP fomodeld_artifact_store_evictions_total Artifacts evicted by the store size bound.\n")
		fmt.Fprintf(w, "# TYPE fomodeld_artifact_store_evictions_total counter\n")
		fmt.Fprintf(w, "fomodeld_artifact_store_evictions_total %d\n", evictions)
		fmt.Fprintf(w, "# HELP fomodeld_artifact_store_put_errors_total Artifact writes that failed (a full or read-only disk, say).\n")
		fmt.Fprintf(w, "# TYPE fomodeld_artifact_store_put_errors_total counter\n")
		fmt.Fprintf(w, "fomodeld_artifact_store_put_errors_total %d\n", st.PutErrors())
		fmt.Fprintf(w, "# HELP fomodeld_artifact_store_bytes Bytes currently stored on disk.\n")
		fmt.Fprintf(w, "# TYPE fomodeld_artifact_store_bytes gauge\n")
		fmt.Fprintf(w, "fomodeld_artifact_store_bytes %d\n", st.SizeBytes())
	}

	workloads, sims := s.suite.CounterSources()
	fmt.Fprintf(w, "# HELP fomodeld_workload_analyses_total Workload analysis bundles computed.\n")
	fmt.Fprintf(w, "# TYPE fomodeld_workload_analyses_total counter\n")
	fmt.Fprintf(w, "fomodeld_workload_analyses_total %d\n", workloads.Load())
	fmt.Fprintf(w, "# HELP fomodeld_sim_runs_total Detailed simulator runs.\n")
	fmt.Fprintf(w, "# TYPE fomodeld_sim_runs_total counter\n")
	fmt.Fprintf(w, "fomodeld_sim_runs_total %d\n", sims.Load())

	snap := s.latency.Snapshot()
	fmt.Fprintf(w, "# HELP fomodeld_request_duration_seconds Request latency.\n")
	fmt.Fprintf(w, "# TYPE fomodeld_request_duration_seconds histogram\n")
	for i, bound := range snap.Bounds {
		fmt.Fprintf(w, "fomodeld_request_duration_seconds_bucket{le=\"%g\"} %d\n", bound, snap.Cumulative[i])
	}
	fmt.Fprintf(w, "fomodeld_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", snap.Count)
	fmt.Fprintf(w, "fomodeld_request_duration_seconds_sum %.6f\n", snap.Sum)
	fmt.Fprintf(w, "fomodeld_request_duration_seconds_count %d\n", snap.Count)
}

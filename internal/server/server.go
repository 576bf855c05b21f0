package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
	"fomodel/internal/httpfront"
	"fomodel/internal/metrics"
	"fomodel/internal/registry"
	"fomodel/internal/reqkey"
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
	// TraceCacheEntries bounds the suite's decoded-trace cache, which
	// holds the traces the daemon reads more than once: those a
	// simulation, a sweep or the warm-up reads, at any (n, seed). A cold
	// model-only predict caches none, and a predict at another ROB size
	// regroups the analysis without reading a trace. Evicted traces
	// release their prep-cache entries (0 = 64). A bound below the 12
	// built-ins makes a full-suite sweep reload traces.
	TraceCacheEntries int
	// AnalysisCacheEntries bounds the suite's analysis-bundle cache,
	// which serves predicts, sweeps and the warm-up alike (0 = 128).
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

// Server is the fomodeld daemon: HTTP handlers plus the shared state
// they serve from (the experiment suite with its trace, analysis and
// prep caches, the response cache, and the metrics counters).
type Server struct {
	cfg Config
	// keys are the defaults every request is normalized and keyed
	// against; the registry resolves registered names to their content.
	keys  reqkey.Defaults
	suite *experiments.Suite
	start time.Time

	// cache is the canonical-request response cache: finished response
	// bodies keyed by the canonicalized request. A response hit skips
	// everything; a miss still reuses the suite's analysis, trace and
	// prep caches underneath.
	cache *flight.Cache[string, []byte]

	front    *httpfront.Front
	inflight metrics.Gauge
	shed     metrics.Counter
	slots    chan struct{}

	// notReady is set while the daemon should be kept out of routing
	// rotation (boot warm-up in flight); /readyz answers 503 until it
	// clears. Inverted so the zero value — ready — matches servers that
	// never warm.
	notReady atomic.Bool

	// Per-registered-workload request/hit accounting, keyed by workload
	// name; populated only for names present in the registry, so the
	// maps are bounded by the registered population.
	regUseMu    sync.Mutex
	regRequests map[string]*metrics.Counter
	regHits     map[string]*metrics.Counter

	// Optimize-search instrumentation: candidate evaluations run,
	// refinement rounds, and the most recent completed search's frontier
	// size.
	optEvals    metrics.Counter
	optRounds   metrics.Counter
	optFrontier metrics.Gauge

	// gate, when non-nil, blocks every admitted /v1 request until the
	// channel yields; tests use it to hold requests in flight
	// deterministically.
	gate chan struct{}
	// panicHook, when non-nil, runs inside sweep, predict, batch and
	// optimize computations with the request's bench, parameter or title;
	// tests use it to inject worker panics and pin the recovery path.
	panicHook func(name string)
}

// New builds a server. A nil logger discards logs.
func New(cfg Config, log *slog.Logger) *Server {
	cfg = cfg.withDefaults()
	suite := experiments.NewSuite(cfg.N, cfg.Seed)
	suite.Workers = cfg.Workers
	suite.SetStore(cfg.Store)
	suite.SetCacheEntries(cfg.TraceCacheEntries, cfg.AnalysisCacheEntries)
	if cfg.Registry == nil {
		cfg.Registry = registry.New(registry.Config{Store: cfg.Store})
	}
	suite.Lookup = cfg.Registry.Snapshot
	return &Server{
		cfg:         cfg,
		keys:        reqkey.Defaults{N: cfg.N, Seed: cfg.Seed, Resolver: cfg.Registry},
		suite:       suite,
		start:       time.Now(),
		cache:       flight.New[string, []byte](cfg.CacheEntries, nil),
		front:       httpfront.New(log, nil),
		slots:       make(chan struct{}, cfg.MaxInflight),
		regRequests: make(map[string]*metrics.Counter),
		regHits:     make(map[string]*metrics.Counter),
	}
}

// Warm precomputes every default workload bundle, filling the suite's
// caches and — when a store is configured — persisting the trace and
// analysis artifacts so the next process boots warm.
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
	api := func(pattern string, h httpfront.HandlerFunc) { s.front.Handle(mux, pattern, s.admit(h)) }
	api("POST /v1/predict", s.handlePredict)
	api("POST /v1/batch", s.handleBatch)
	api("POST /v1/sweep", s.handleSweep)
	api("POST /v1/optimize", s.handleOptimize)
	api("GET /v1/workloads", s.handleWorkloads)
	api("POST /v1/workloads/{name}", s.handleWorkloadRegister)
	api("GET /v1/workloads/{name}", s.handleWorkloadGet)
	api("DELETE /v1/workloads/{name}", s.handleWorkloadDelete)
	s.front.Handle(mux, "GET /healthz", s.handleHealthz)
	s.front.Handle(mux, "GET /readyz", s.handleReadyz)
	s.front.Handle(mux, "GET /metrics", s.handleMetrics)
	return mux
}

// admit wraps an API handler with admission control, shedding with 429
// when MaxInflight requests are already executing, and the per-request
// computation deadline.
func (s *Server) admit(h httpfront.HandlerFunc) httpfront.HandlerFunc {
	return func(w *httpfront.Writer, r *http.Request) {
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
			httpfront.WriteError(w, http.StatusTooManyRequests,
				"server saturated: %d requests already in flight", s.cfg.MaxInflight)
			return
		}
		if s.gate != nil {
			<-s.gate
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// retryAfterSeconds derives the 429 Retry-After value from observed
// service time: the mean request latency from the histogram, rounded up
// to whole seconds with a 1-second floor, so shed clients back off
// proportionally to how long requests are actually taking instead of
// hammering a saturated server once per second.
func (s *Server) retryAfterSeconds() int {
	snap := s.front.Latency.Snapshot()
	if snap.Count == 0 {
		return 1
	}
	secs := int(math.Ceil(snap.Sum / float64(snap.Count)))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// finishCompute maps a computation outcome onto the response: a body is
// written as-is with 200, context errors become 499 (client gone,
// nothing written) or 503 (deadline), and other failures take
// errorStatus's status.
func (s *Server) finishCompute(w *httpfront.Writer, body []byte, hit bool, err error) {
	cacheState := "miss"
	if hit {
		cacheState = "hit"
	}
	s.finishComputeState(w, body, cacheState, err)
}

// finishComputeState is finishCompute with an explicit cache state; an
// empty state omits the X-Cache header and log field (batch responses
// report cache participation per item instead).
func (s *Server) finishComputeState(w *httpfront.Writer, body []byte, cacheState string, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		// The client disconnected; there is no one to write to. Record
		// the conventional 499 for the log and metrics.
		w.Code = httpfront.StatusClientGone
	case errors.Is(err, context.DeadlineExceeded):
		httpfront.WriteError(w, http.StatusServiceUnavailable,
			"request exceeded the %s computation deadline", s.cfg.RequestTimeout)
	case err != nil:
		httpfront.WriteError(w, errorStatus(err), "%s", err)
	default:
		if cacheState != "" {
			w.Header().Set("X-Cache", cacheState)
			w.Cache = cacheState
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		//folint:allow(errdrop) response-body write: the client may already be gone, and there is no fallback channel
		w.Write(body)
	}
}

// badRequest marks an error as the request's own mistake, a 400.
type badRequest struct{ error }

// errorStatus is the HTTP status of a failed request whose error is not
// a context error: 400 for the request's mistakes, 503 for a workload
// re-registered or deleted under it (experiments.ErrWorkloadChanged,
// which clients retry under the current content), and 500 for
// everything else.
func errorStatus(err error) int {
	switch {
	case errors.As(err, new(badRequest)):
		return http.StatusBadRequest
	case errors.Is(err, experiments.ErrWorkloadChanged):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
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
func (s *Server) handleReadyz(w *httpfront.Writer, r *http.Request) {
	resp := readyzResponse{Status: "ready", UptimeSeconds: time.Since(s.start).Seconds()}
	w.Header().Set("Content-Type", "application/json")
	if !s.Ready() {
		resp.Status = "warming"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	//folint:allow(errdrop) readyz encode: the client may already be gone, and there is no fallback channel
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleHealthz(w *httpfront.Writer, r *http.Request) {
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
func writeCacheMetrics[K comparable, V any](x metrics.Exposition, name, what string, c *flight.Cache[K, V]) {
	hits, misses, evictions := c.Stats()
	x.Counter(name+"_hits_total", what+" served from the cache, joins of a successful in-flight computation included.", hits)
	x.Counter(name+"_misses_total", what+" computed or loaded from the store because the cache had no entry.", misses)
	x.Counter(name+"_evictions_total", what+" evicted by the cache's LRU bound.", evictions)
	x.Gauge(name+"_entries", what+" currently cached, in-flight computations included.", int64(c.Len()))
}

// handleMetrics renders every counter in the Prometheus text exposition
// format. The prep-cache and suite counters are the very same
// metrics.Counter values the CLI's -timing flag prints — one counter
// type, one source, two surfaces.
func (s *Server) handleMetrics(w *httpfront.Writer, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	x := metrics.NewExposition(w, "fomodeld_")
	x.Uptime("Time since the server started.", s.start)
	x.Requests(&s.front.Requests)
	x.Gauge("requests_in_flight", "API requests currently executing.", s.inflight.Load())
	x.Counter("requests_shed_total", "Requests rejected with 429 by the in-flight limiter.", s.shed.Load())

	writeCacheMetrics(x, "response_cache", "Responses", s.cache)
	traces, analyses := s.suite.Caches()
	writeCacheMetrics(x, "analysis_cache", "Analyses", analyses)
	writeCacheMetrics(x, "trace_cache", "Traces", traces)

	preps := s.suite.Preps()
	prepHits, prepMisses := preps.Stats()
	x.Counter("prep_cache_reuses_total", "Simulator runs that reused a cached classification pass.", prepHits)
	x.Counter("prep_cache_passes_total", "Classification passes computed.", prepMisses)
	x.Counter("prep_cache_evictions_total", "Prep-cache entries evicted by the LRU bound or trace eviction.", preps.Evictions())
	x.Gauge("prep_cache_entries", "Classifications currently cached, one per trace and classification config.", int64(preps.Len()))

	x.Counter("optimize_evaluations_total", "Model evaluations (candidate x workload) run by design-space searches.", s.optEvals.Load())
	x.Counter("optimize_refinement_rounds_total", "Refinement rounds run by design-space searches.", s.optRounds.Load())
	x.Gauge("optimize_frontier_size", "Frontier size of the most recent completed search.", s.optFrontier.Load())

	if reg := s.cfg.Registry; reg != nil {
		registers, deletes, rejects, persistErrors := reg.Stats()
		x.Counter("registry_registrations_total", "Custom workloads registered (including replacements).", registers)
		x.Counter("registry_deletions_total", "Custom workloads deleted.", deletes)
		x.Counter("registry_rejections_total", "Registrations rejected by validation, collision, or quota.", rejects)
		x.Counter("registry_persist_errors_total", "Failed writes of the registry index to the artifact store.", persistErrors)

		usage := reg.TenantUsage()
		tenants := make([]string, 0, len(usage))
		for t := range usage {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		x.Labeled("registry_workloads", "gauge", "Registered workloads currently held, by tenant.", "tenant", tenants,
			func(i int) int64 { return int64(usage[tenants[i]].Count) })
		x.Labeled("registry_bytes", "gauge", "Encoded profile bytes currently held, by tenant.", "tenant", tenants,
			func(i int) int64 { return usage[tenants[i]].Bytes })

		s.regUseMu.Lock()
		names := make([]string, 0, len(s.regRequests))
		for name := range s.regRequests {
			names = append(names, name)
		}
		s.regUseMu.Unlock()
		sort.Strings(names)
		x.Labeled("registered_workload_requests_total", "counter", "Predict evaluations referencing a registered workload, by name.", "workload", names,
			func(i int) int64 { return s.registeredUseCounter(s.regRequests, names[i]).Load() })
		x.Labeled("registered_workload_cache_hits_total", "counter", "Registered-workload evaluations served from the response cache, by name.", "workload", names,
			func(i int) int64 { return s.registeredUseCounter(s.regHits, names[i]).Load() })
	}

	if st := s.cfg.Store; st != nil {
		hits, misses, corrupt, writes, evictions := st.Stats()
		x.Counter("artifact_store_hits_total", "Artifacts served from the persistent store.", hits)
		x.Counter("artifact_store_misses_total", "Store lookups that found no artifact.", misses)
		x.Counter("artifact_store_corrupt_total", "Artifacts rejected by checksum or framing validation.", corrupt)
		x.Counter("artifact_store_writes_total", "Artifacts written to the store.", writes)
		x.Counter("artifact_store_evictions_total", "Artifacts evicted by the store size bound.", evictions)
		x.Counter("artifact_store_put_errors_total", "Artifact writes that failed (a full or read-only disk, say).", st.PutErrors())
		x.Gauge("artifact_store_bytes", "Bytes currently stored on disk.", st.SizeBytes())
	}

	workloads, sims := s.suite.CounterSources()
	x.Counter("workload_analyses_total", "Workload analysis bundles computed.", workloads.Load())
	x.Counter("sim_runs_total", "Detailed simulator runs.", sims.Load())
	x.Histogram("request_duration_seconds", "Request latency.", s.front.Latency)
}

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fomodel/internal/httpfront"
	"fomodel/internal/metrics/metricstest"
)

// testServer builds a small, fast server for handler tests.
func testServer(cfg Config) *Server {
	if cfg.N == 0 {
		cfg.N = 20000
	}
	return New(cfg, nil)
}

// post runs one POST request through the full handler chain.
func post(s *Server, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// get runs one GET request through the full handler chain.
func get(s *Server, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// errorBody decodes the structured error response and fails the test if
// the body is not one.
func errorBody(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body is not JSON: %v\nbody: %s", err, rec.Body.String())
	}
	if e.Error == "" {
		t.Fatalf("error body missing the error field: %s", rec.Body.String())
	}
	return e.Error
}

func TestPredictBadRequests(t *testing.T) {
	s := testServer(Config{})
	cases := []struct {
		name, body, wantSub string
	}{
		{"malformed JSON", `{not json`, "invalid request body"},
		{"unknown field", `{"bench":"gzip","bogus":1}`, "invalid request body"},
		{"trailing data", `{"bench":"gzip"} extra`, "trailing data"},
		{"unknown bench", `{"bench":"nope"}`, "unknown profile"},
		{"n out of range", `{"bench":"gzip","n":10}`, "outside"},
		{"bad branch mode", `{"bench":"gzip","branch_mode":"psychic"}`, "unknown branch mode"},
		{"bad fu spec", `{"bench":"gzip","machine":{"fu":"bogus=1"}}`, "unknown instruction class"},
		{"bad machine", `{"bench":"gzip","machine":{"width":-1}}`, "width"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(s, "/v1/predict", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400\nbody: %s", rec.Code, rec.Body.String())
			}
			if msg := errorBody(t, rec); !strings.Contains(msg, tc.wantSub) {
				t.Errorf("error %q does not mention %q", msg, tc.wantSub)
			}
		})
	}
}

func TestSweepBadRequests(t *testing.T) {
	s := testServer(Config{})
	big := make([]string, 0, 300)
	for v := 1; v <= 300; v++ {
		big = append(big, fmt.Sprint(v))
	}
	cases := []struct {
		name, body, wantSub string
	}{
		{"malformed JSON", `[1,2]`, "invalid request body"},
		{"unknown param", `{"param":"voltage","benches":["gzip"],"values":[1]}`, "unknown sweep parameter"},
		{"unknown bench", `{"param":"width","benches":["nope"],"values":[2]}`, "unknown profile"},
		{"no values", `{"param":"width","benches":["gzip"],"values":[]}`, "at least one"},
		{"grid too large", `{"param":"width","benches":["gzip"],"values":[` + strings.Join(big, ",") + `]}`, "256-cell limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(s, "/v1/sweep", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400\nbody: %s", rec.Code, rec.Body.String())
			}
			if msg := errorBody(t, rec); !strings.Contains(msg, tc.wantSub) {
				t.Errorf("error %q does not mention %q", msg, tc.wantSub)
			}
		})
	}
}

// TestPredictCache pins the response-cache behaviour: the first request
// computes (miss), the second is served from the cache (hit) with an
// identical body, and the hit/miss counters move accordingly.
func TestPredictCache(t *testing.T) {
	s := testServer(Config{})
	const body = `{"bench":"gzip","sim":true}`

	first := post(s, "/v1/predict", body)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: status = %d\nbody: %s", first.Code, first.Body.String())
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}
	if hits, misses, _ := s.cache.Stats(); hits != 0 || misses != 1 {
		t.Errorf("after first request: hits=%d misses=%d, want 0/1", hits, misses)
	}

	second := post(s, "/v1/predict", body)
	if second.Code != http.StatusOK {
		t.Fatalf("second request: status = %d", second.Code)
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("second request X-Cache = %q, want hit", got)
	}
	if hits, misses, _ := s.cache.Stats(); hits != 1 || misses != 1 {
		t.Errorf("after second request: hits=%d misses=%d, want 1/1", hits, misses)
	}
	if first.Body.String() != second.Body.String() {
		t.Errorf("cached body differs from computed body")
	}

	// A different request must miss, not alias the first entry.
	third := post(s, "/v1/predict", `{"bench":"mcf"}`)
	if third.Code != http.StatusOK {
		t.Fatalf("third request: status = %d\nbody: %s", third.Code, third.Body.String())
	}
	if got := third.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("third request X-Cache = %q, want miss", got)
	}
	if third.Body.String() == first.Body.String() {
		t.Errorf("different benches returned the same body")
	}
}

// TestPredictCacheCanonicalKey pins that two requests spelling the same
// canonical request differently share one cache entry.
func TestPredictCacheCanonicalKey(t *testing.T) {
	s := testServer(Config{})
	first := post(s, "/v1/predict", `{"bench":"gzip"}`)
	// Explicitly spelling out the defaults must hit the same entry.
	second := post(s, "/v1/predict", `{"bench":"gzip","n":20000,"seed":1,"branch_mode":"midpoint"}`)
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("statuses = %d, %d", first.Code, second.Code)
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("canonicalized request X-Cache = %q, want hit", got)
	}
}

// TestLimiterSheds pins the admission control: with one in-flight slot
// occupied, the next request is shed with 429 and a Retry-After header,
// and the shed counter moves.
func TestLimiterSheds(t *testing.T) {
	s := testServer(Config{MaxInflight: 1})
	s.gate = make(chan struct{})

	// Occupy the only slot: this request is admitted, then parks on the
	// gate until we release it.
	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		firstDone <- post(s, "/v1/predict", `{"bench":"gzip"}`)
	}()
	// Wait until the request holds the slot (parked on the gate).
	for s.inflight.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	rec := get(s, "/v1/workloads")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Errorf("429 response missing Retry-After")
	}
	if msg := errorBody(t, rec); !strings.Contains(msg, "saturated") {
		t.Errorf("429 error %q does not mention saturation", msg)
	}
	if got := s.shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	// Health and metrics bypass the limiter even while saturated.
	if rec := get(s, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("saturated /healthz: status = %d, want 200", rec.Code)
	}
	if rec := get(s, "/metrics"); rec.Code != http.StatusOK {
		t.Errorf("saturated /metrics: status = %d, want 200", rec.Code)
	}

	close(s.gate)
	if rec := <-firstDone; rec.Code != http.StatusOK {
		t.Errorf("parked request: status = %d, want 200\nbody: %s", rec.Code, rec.Body.String())
	}
	if got := s.inflight.Load(); got != 0 {
		t.Errorf("in-flight gauge = %d after drain, want 0", got)
	}
}

// TestClientDisconnectCancelsSweep pins cancellation: a client that
// disconnects before its sweep starts computing causes the sweep to stop
// (zero simulator runs), and the request is recorded as 499.
func TestClientDisconnectCancelsSweep(t *testing.T) {
	s := testServer(Config{})
	s.gate = make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep",
		strings.NewReader(`{"param":"width","benches":["gzip"],"values":[2,4,6,8]}`)).WithContext(ctx)
	rec := httptest.NewRecorder()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Handler().ServeHTTP(rec, req)
	}()
	// Wait for admission, disconnect the client, then let the handler run.
	for s.inflight.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(s.gate)
	wg.Wait()

	if rec.Body.Len() != 0 {
		t.Errorf("disconnected client still received a body: %s", rec.Body.String())
	}
	if got := s.front.Requests.Counter("/v1/sweep", httpfront.StatusClientGone).Load(); got != 1 {
		t.Errorf("499 counter = %d, want 1", got)
	}
	if _, sims := s.suite.CounterSources(); sims.Load() != 0 {
		t.Errorf("canceled sweep still ran %d simulations", sims.Load())
	}
	// The canceled computation must not be cached: a live client retrying
	// the same sweep computes it fresh and succeeds.
	retry := post(s, "/v1/sweep", `{"param":"width","benches":["gzip"],"values":[2,4,6,8]}`)
	if retry.Code != http.StatusOK {
		t.Fatalf("retry after cancel: status = %d\nbody: %s", retry.Code, retry.Body.String())
	}
	if got := retry.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("retry X-Cache = %q, want miss (canceled entry must not persist)", got)
	}
}

// TestConcurrentIdenticalPredicts pins the single-flight property under
// real concurrency (run with -race): many identical requests produce one
// computation and identical bodies.
func TestConcurrentIdenticalPredicts(t *testing.T) {
	s := testServer(Config{MaxInflight: 64})
	const clients = 16
	recs := make([]*httptest.ResponseRecorder, clients)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = post(s, "/v1/predict", `{"bench":"vortex","sim":true}`)
		}(i)
	}
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("client %d: status = %d\nbody: %s", i, rec.Code, rec.Body.String())
		}
		if rec.Body.String() != recs[0].Body.String() {
			t.Errorf("client %d received a different body", i)
		}
	}
	if hits, misses, _ := s.cache.Stats(); misses != 1 || hits != clients-1 {
		t.Errorf("cache hits=%d misses=%d, want %d/1", hits, misses, clients-1)
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	s := testServer(Config{})
	rec := get(s, "/v1/workloads")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d\nbody: %s", rec.Code, rec.Body.String())
	}
	var resp WorkloadsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != 20000 || resp.Seed != 1 {
		t.Errorf("defaults = (%d, %d), want (20000, 1)", resp.N, resp.Seed)
	}
	if len(resp.Workloads) != 12 {
		t.Fatalf("workloads = %d, want 12", len(resp.Workloads))
	}
	for _, w := range resp.Workloads {
		if w.Alpha <= 0 || w.Beta <= 0 || w.AvgLatency < 1 {
			t.Errorf("%s: implausible stats alpha=%g beta=%g L=%g", w.Name, w.Alpha, w.Beta, w.AvgLatency)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := testServer(Config{})
	rec := get(s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz status = %d", rec.Code)
	}
	var h healthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("healthz status = %q, want ok", h.Status)
	}

	// Generate one computed and one cached response, then check the
	// exposition reflects both paths.
	post(s, "/v1/predict", `{"bench":"gzip","sim":true}`)
	post(s, "/v1/predict", `{"bench":"gzip","sim":true}`)
	rec = get(s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`fomodeld_requests_total{path="/v1/predict",code="200"} 2`,
		"fomodeld_response_cache_hits_total 1",
		"fomodeld_response_cache_misses_total 1",
		"fomodeld_prep_cache_passes_total 1",
		"fomodeld_requests_in_flight 0",
		"fomodeld_request_duration_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\nexposition:\n%s", want, body)
		}
	}
}

// TestSimRunsCountEverySimulation: fomodeld_sim_runs_total counts the
// simulator runs of predicts and batch items, not only sweep cells, and
// a response-cache hit runs nothing.
func TestSimRunsCountEverySimulation(t *testing.T) {
	s := testServer(Config{})
	simRuns := func() string {
		body := get(s, "/metrics").Body.String()
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, "fomodeld_sim_runs_total "); ok {
				return v
			}
		}
		t.Fatalf("/metrics has no fomodeld_sim_runs_total:\n%s", body)
		return ""
	}
	for i, step := range []struct{ path, body, want string }{
		{"/v1/predict", `{"bench":"gzip","sim":true}`, "1"},
		{"/v1/predict", `{"bench":"gzip","sim":true}`, "1"},
		{"/v1/batch", `{"items":[{"bench":"gzip","sim":true},{"bench":"mcf","sim":true}]}`, "2"},
	} {
		if rec := post(s, step.path, step.body); rec.Code != http.StatusOK {
			t.Fatalf("step %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if got := simRuns(); got != step.want {
			t.Errorf("step %d (%s %s): fomodeld_sim_runs_total %s, want %s", i, step.path, step.body, got, step.want)
		}
	}
}

// TestMetricsExpositionParses checks that every sample line of the
// daemon's /metrics, after traffic through the simulator, the response
// cache and the registry, reads as `name[{labels}] <float>`.
func TestMetricsExpositionParses(t *testing.T) {
	s := testServer(Config{})
	post(s, "/v1/predict", `{"bench":"gzip","sim":true}`)
	post(s, "/v1/predict", `{"bench":"gzip","sim":true}`)
	rec := doReq(s, http.MethodPost, "/v1/workloads/wl", profileJSON(t, "gzip", "wl"), "alice")
	if rec.Code != http.StatusOK {
		t.Fatalf("register: status %d", rec.Code)
	}
	post(s, "/v1/predict", `{"bench":"wl"}`)
	body := get(s, "/metrics").Body.String()
	metricstest.Check(t, body)
	if !strings.Contains(body, "\nfomodeld_prep_cache_evictions_total 0\n") {
		t.Errorf("/metrics lacks a numeric prep-cache eviction count:\n%s", body)
	}
	// Every flight-backed cache layer exposes the same four series.
	for _, layer := range []string{"response_cache", "analysis_cache", "trace_cache"} {
		for _, series := range []string{"hits_total", "misses_total", "evictions_total", "entries"} {
			if name := "fomodeld_" + layer + "_" + series; !strings.Contains(body, "\n"+name+" ") {
				t.Errorf("/metrics lacks %s", name)
			}
		}
	}
}

// TestRetryAfterDerived pins the 429 backpressure hint: Retry-After is
// the observed mean request latency rounded up to whole seconds, with a
// floor of one second before any requests (or under fast ones).
func TestRetryAfterDerived(t *testing.T) {
	s := testServer(Config{MaxInflight: 1})
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("retryAfterSeconds with no history = %d, want 1", got)
	}
	s.front.Latency.Observe(0.01)
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("retryAfterSeconds under fast requests = %d, want floor of 1", got)
	}

	// Slow history: mean of 2.2s and 3.0s rounds up to 3.
	s2 := testServer(Config{MaxInflight: 1})
	s2.front.Latency.Observe(2.2)
	s2.front.Latency.Observe(3.0)
	if got := s2.retryAfterSeconds(); got != 3 {
		t.Errorf("retryAfterSeconds = %d, want ceil(2.6) = 3", got)
	}

	// And the header carries the derived value when the limiter sheds.
	s2.gate = make(chan struct{})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(s2, "/v1/predict", `{"bench":"gzip"}`) }()
	for s2.inflight.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	rec := get(s2, "/v1/workloads")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want %q", got, "3")
	}
	close(s2.gate)
	<-done
}

func TestMethodNotAllowed(t *testing.T) {
	s := testServer(Config{})
	rec := get(s, "/v1/predict")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/predict: status = %d, want 405", rec.Code)
	}
}

// TestReadyz pins the readiness surface: the daemon boots ready, a
// warm-up in flight (SetReady(false)) flips /readyz to 503 with a
// "warming" body while /healthz stays 200, and SetReady(true) restores
// 200 — the signal a routing proxy uses to keep cold replicas out of
// its ring.
func TestReadyz(t *testing.T) {
	s := testServer(Config{})
	if rec := get(s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("boot /readyz = %d, want 200\nbody: %s", rec.Code, rec.Body.String())
	}

	s.SetReady(false)
	rec := get(s, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("warming /readyz = %d, want 503", rec.Code)
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Status != "warming" {
		t.Errorf("warming body = %q (err %v), want status \"warming\"", rec.Body.String(), err)
	}
	if rec := get(s, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("/healthz while warming = %d, want 200 (liveness is not readiness)", rec.Code)
	}

	s.SetReady(true)
	rec = get(s, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("ready /readyz = %d, want 200", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Status != "ready" {
		t.Errorf("ready body = %q (err %v), want status \"ready\"", rec.Body.String(), err)
	}
}

// TestRequestIDPropagation pins the X-Request-ID contract: a request
// carrying the header gets it echoed in the response headers, woven into
// the structured request log, and embedded in error bodies; a request
// without the header keeps the historical body and log shapes.
func TestRequestIDPropagation(t *testing.T) {
	var logBuf syncBuffer
	s := New(Config{N: 20000}, slog.New(slog.NewJSONHandler(&logBuf, nil)))

	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(`{"bench":"nope"}`))
	req.Header.Set("X-Request-ID", "trace-me-42")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)

	if got := rec.Header().Get("X-Request-ID"); got != "trace-me-42" {
		t.Errorf("response X-Request-ID = %q, want it echoed", got)
	}
	var e struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body: %v", err)
	}
	if e.RequestID != "trace-me-42" {
		t.Errorf("error body request_id = %q, want \"trace-me-42\"\nbody: %s", e.RequestID, rec.Body.String())
	}
	if !strings.Contains(logBuf.String(), `"request_id":"trace-me-42"`) {
		t.Errorf("request log lacks the request id:\n%s", logBuf.String())
	}

	// Headerless requests keep the historical error-body shape.
	rec = post(s, "/v1/predict", `{"bench":"nope"}`)
	if strings.Contains(rec.Body.String(), "request_id") {
		t.Errorf("headerless error body grew a request_id field: %s", rec.Body.String())
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for capturing slog output
// from concurrent handlers.
type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

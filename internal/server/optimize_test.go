package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fomodel/internal/optimize"
)

const optimizeBody = `{"workloads":[{"bench":"gzip"}],"bounds":{"width":{"min":1,"max":4}},"budget":6}`

func TestOptimizeBadRequests(t *testing.T) {
	s := testServer(Config{})
	cases := []struct {
		name, body, wantSub string
	}{
		{"malformed JSON", `{not json`, "invalid request body"},
		{"unknown field", `{"workloads":[{"bench":"gzip"}],"bogus":1}`, "invalid request body"},
		{"no workloads", `{"bounds":{"width":{"min":1,"max":4}},"budget":4}`, "at least one workload"},
		{"unknown bench", `{"workloads":[{"bench":"nope"}],"bounds":{"width":{"min":1,"max":4}},"budget":4}`, "unknown profile"},
		{"unknown param", `{"workloads":[{"bench":"gzip"}],"bounds":{"l2":{"min":1,"max":4}},"budget":4}`,
			`unknown parameter "l2" (known: clusters, depth, fetch_buffer, rob, width, window)`},
		{"no budget", `{"workloads":[{"bench":"gzip"}],"bounds":{"width":{"min":1,"max":4}}}`, "budget 0 < 1"},
		{"bad objective", `{"workloads":[{"bench":"gzip"}],"bounds":{"width":{"min":1,"max":4}},"budget":4,"objective":"ipc"}`,
			"unknown objective"},
		{"n out of range", `{"workloads":[{"bench":"gzip"}],"bounds":{"width":{"min":1,"max":4}},"budget":4,"n":10}`,
			"outside"},
		{"width above the simulator's bound", `{"workloads":[{"bench":"gzip"}],"bounds":{"width":{"min":60,"max":70}},"budget":4}`,
			"width bound max 70 above the parameter maximum 64"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(s, "/v1/optimize", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400\nbody: %s", rec.Code, rec.Body.String())
			}
			if msg := errorBody(t, rec); !strings.Contains(msg, tc.wantSub) {
				t.Errorf("error %q does not mention %q", msg, tc.wantSub)
			}
		})
	}
}

// TestOptimizeBufferedAndCached pins the buffered path: a well-formed
// search answers 200 with a non-empty frontier, and the identical spec
// is a response-cache hit with byte-identical bytes.
func TestOptimizeBufferedAndCached(t *testing.T) {
	s := testServer(Config{})
	first := post(s, "/v1/optimize", optimizeBody)
	if first.Code != http.StatusOK {
		t.Fatalf("status = %d\nbody: %s", first.Code, first.Body.String())
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}
	var resp OptimizeResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad body: %v", err)
	}
	if len(resp.Frontier) == 0 || len(resp.Points) == 0 {
		t.Fatalf("empty frontier or history: %s", first.Body.String())
	}
	if resp.Evaluations > 6 {
		t.Errorf("evaluations = %d exceeds budget 6", resp.Evaluations)
	}
	if resp.Render == "" || resp.CSV == "" {
		t.Errorf("missing render or csv")
	}

	second := post(s, "/v1/optimize", optimizeBody)
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if second.Body.String() != first.Body.String() {
		t.Errorf("cached body differs from computed body")
	}
}

// TestOptimizeSpellingsCollapse pins canonicalization: explicit defaults
// and omitted defaults produce one cache key.
func TestOptimizeSpellingsCollapse(t *testing.T) {
	d := Config{N: 20000}.KeyDefaults()
	implicit := optimize.Spec{
		Workloads: []optimize.WorkloadWeight{{Bench: "gzip"}},
		Bounds:    map[string]optimize.Bound{"width": {Min: 1, Max: 4}},
		Budget:    6,
	}
	explicit := optimize.Spec{
		Workloads: []optimize.WorkloadWeight{{Bench: "gzip", Weight: 1}},
		Bounds:    map[string]optimize.Bound{"width": {Min: 1, Max: 4, Step: 1}},
		Objective: "cpi",
		Budget:    6,
		Seed:      1,
		Grid:      3,
		N:         20000,
		TraceSeed: 1,
	}
	k1, err := OptimizeCacheKey(implicit, d)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := OptimizeCacheKey(explicit, d)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("keys differ:\n%q\n%q", k1, k2)
	}
}

// TestOptimizeDeterministicAcrossWorkerCounts pins the worker-count
// independence contract through the real evaluator: two daemons
// configured with different pool sizes produce byte-identical bodies.
func TestOptimizeDeterministicAcrossWorkerCounts(t *testing.T) {
	body := `{"workloads":[{"bench":"gzip"},{"bench":"mcf","weight":2}],` +
		`"bounds":{"width":{"min":1,"max":8}},"budget":8}`
	one := post(testServer(Config{Workers: 1}), "/v1/optimize", body)
	many := post(testServer(Config{Workers: 7}), "/v1/optimize", body)
	if one.Code != http.StatusOK || many.Code != http.StatusOK {
		t.Fatalf("status = %d / %d", one.Code, many.Code)
	}
	if one.Body.String() != many.Body.String() {
		t.Errorf("worker count changed the response body")
	}
}

// TestOptimizeSharesPredictCache pins the cache interplay the design
// demands: optimize evaluations land in the predict response cache, so
// an identically-spelled /v1/predict afterwards is a hit.
func TestOptimizeSharesPredictCache(t *testing.T) {
	s := testServer(Config{})
	if rec := post(s, "/v1/optimize", optimizeBody); rec.Code != http.StatusOK {
		t.Fatalf("optimize status = %d\nbody: %s", rec.Code, rec.Body.String())
	}
	// Candidate width=4 was on the coarse grid (bounds 1..4, endpoints
	// included); its evaluation key is the fully-specified predict below.
	rec := post(s, "/v1/predict",
		`{"bench":"gzip","machine":{"width":4,"depth":5,"window":48,"rob":128}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict status = %d\nbody: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("predict after optimize X-Cache = %q, want hit", got)
	}
}

// TestOptimizeDeadlineEnforced pins the spec-level deadline: a search
// that cannot finish inside deadline_ms answers 503 naming the deadline.
func TestOptimizeDeadlineEnforced(t *testing.T) {
	s := testServer(Config{})
	s.panicHook = func(string) { time.Sleep(30 * time.Millisecond) }
	body := `{"workloads":[{"bench":"gzip"}],"bounds":{"width":{"min":1,"max":4}},"budget":4,"deadline_ms":1}`
	rec := post(s, "/v1/optimize", body)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503\nbody: %s", rec.Code, rec.Body.String())
	}
	if msg := errorBody(t, rec); !strings.Contains(msg, "1ms deadline") {
		t.Errorf("error %q does not name the spec deadline", msg)
	}
}

// TestOptimizeWorkerPanicIsA500 pins the panic net on the buffered path.
func TestOptimizeWorkerPanicIsA500(t *testing.T) {
	s := testServer(Config{})
	s.panicHook = func(string) { panic("injected") }
	rec := post(s, "/v1/optimize", optimizeBody)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500\nbody: %s", rec.Code, rec.Body.String())
	}
	if msg := errorBody(t, rec); !strings.Contains(msg, "internal panic") {
		t.Errorf("error %q does not report the panic", msg)
	}
}

// postOptimizeNDJSON runs one optimize request with the streaming
// Accept header.
func postOptimizeNDJSON(s *Server, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(body))
	req.Header.Set("Accept", ndjsonContentType)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// parseOptimizeStream splits an NDJSON optimize body into point rows and
// the trailer row.
func parseOptimizeStream(t *testing.T, body string) ([]optimize.Point, OptimizeTrailer) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream has %d rows, want points plus a trailer:\n%s", len(lines), body)
	}
	points := make([]optimize.Point, 0, len(lines)-1)
	for _, line := range lines[:len(lines)-1] {
		var pt optimize.Point
		if err := json.Unmarshal([]byte(line), &pt); err != nil {
			t.Fatalf("bad point row %q: %v", line, err)
		}
		points = append(points, pt)
	}
	var trailer OptimizeTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatalf("bad trailer row %q: %v", lines[len(lines)-1], err)
	}
	return points, trailer
}

// TestStreamedOptimizeMatchesBuffered pins the NDJSON equivalence
// contract: reassembling the streamed rows and trailer reproduces the
// buffered body byte for byte.
func TestStreamedOptimizeMatchesBuffered(t *testing.T) {
	s := testServer(Config{})

	buffered := post(s, "/v1/optimize", optimizeBody)
	if buffered.Code != http.StatusOK {
		t.Fatalf("buffered optimize: status = %d\nbody: %s", buffered.Code, buffered.Body.String())
	}

	streamed := postOptimizeNDJSON(s, optimizeBody)
	if streamed.Code != http.StatusOK {
		t.Fatalf("streamed optimize: status = %d\nbody: %s", streamed.Code, streamed.Body.String())
	}
	if got := streamed.Header().Get("Content-Type"); got != ndjsonContentType {
		t.Errorf("streamed Content-Type = %q, want %q", got, ndjsonContentType)
	}
	if !streamed.Flushed {
		t.Errorf("streamed response was never flushed")
	}

	points, trailer := parseOptimizeStream(t, streamed.Body.String())
	rebuilt, err := EncodeIndented(OptimizeResponse{
		Result: &optimize.Result{
			Spec:        trailer.Spec,
			Points:      points,
			Frontier:    trailer.Frontier,
			Evaluations: trailer.Evaluations,
			Rounds:      trailer.Rounds,
			GridSize:    trailer.GridSize,
			Converged:   trailer.Converged,
		},
		Render: trailer.Render,
		CSV:    trailer.CSV,
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(rebuilt) != buffered.Body.String() {
		t.Errorf("reassembled stream differs from buffered response\nstream:\n%s\nbuffered:\n%s",
			rebuilt, buffered.Body.String())
	}
}

// TestOptimizeMetricsExposed pins the /metrics wiring: after one search
// the optimize counters are present and moving.
func TestOptimizeMetricsExposed(t *testing.T) {
	s := testServer(Config{})
	if rec := post(s, "/v1/optimize", optimizeBody); rec.Code != http.StatusOK {
		t.Fatalf("optimize status = %d", rec.Code)
	}
	body := get(s, "/metrics").Body.String()
	for _, metric := range []string{
		"fomodeld_optimize_evaluations_total",
		"fomodeld_optimize_evaluation_cache_hits_total",
		"fomodeld_optimize_refinement_rounds_total",
		"fomodeld_optimize_frontier_size 1",
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("/metrics missing %q", metric)
		}
	}
	if strings.Contains(body, "fomodeld_optimize_evaluations_total 0\n") {
		t.Errorf("evaluation counter did not move:\n%s", body)
	}
}

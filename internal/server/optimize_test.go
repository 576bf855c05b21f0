package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fomodel/internal/httpfront"
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
		{"no cluster count divides the width", `{"workloads":[{"bench":"gzip"}],"bounds":{"width":{"min":3,"max":3},"clusters":{"min":2,"max":2}},"budget":4}`,
			"a cluster count that does not divide its width and window"},
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
	d := testServer(Config{}).keys
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

// TestOptimizeCachesOnlyItsResponse pins what one search leaves in the
// daemon's caches: on a cold server a ROB-axis search computes one
// analysis per mix workload, not one per (workload, ROB), adds exactly
// one response-cache entry, its own, and so does not evict a predict
// that was a hit before it, even from a response cache far smaller than
// the search's evaluation count.
func TestOptimizeCachesOnlyItsResponse(t *testing.T) {
	s := testServer(Config{CacheEntries: 4})
	const predict = `{"bench":"gzip"}`
	post(s, "/v1/predict", predict)
	if rec := post(s, "/v1/predict", predict); rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second predict X-Cache = %q, want hit", rec.Header().Get("X-Cache"))
	}
	analyses, _ := s.suite.Counters()
	entries := s.cache.Len()

	rec := post(s, "/v1/optimize", `{"workloads":[{"bench":"mcf"},{"bench":"twolf"}],`+
		`"bounds":{"rob":{"min":48,"max":256,"step":16}},"budget":14}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("optimize status = %d\nbody: %s", rec.Code, rec.Body.String())
	}
	var resp OptimizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// Every candidate is a distinct ROB size; served as predicts, the
	// evaluations alone would overflow the 4-entry cache.
	if resp.Evaluations < 3 {
		t.Fatalf("only %d evaluations; the search must visit several ROB sizes", resp.Evaluations)
	}
	if got, _ := s.suite.Counters(); got-analyses != 2 {
		t.Errorf("the search computed %d analyses, want 2 (one per mix workload)", got-analyses)
	}
	if got := s.cache.Len(); got-entries != 1 {
		t.Errorf("the search added %d response-cache entries, want 1", got-entries)
	}
	if rec := post(s, "/v1/predict", predict); rec.Header().Get("X-Cache") != "hit" {
		t.Errorf("predict after the search X-Cache = %q, want hit", rec.Header().Get("X-Cache"))
	}
}

// TestOptimizeSkipsNonDividingClusters pins that a cluster count that
// does not divide a candidate's width or window skips that candidate
// instead of failing the search; bounds with no valid point at all are
// a TestOptimizeBadRequests case.
func TestOptimizeSkipsNonDividingClusters(t *testing.T) {
	for _, tc := range []struct {
		body string
		grid int
	}{
		{`{"workloads":[{"bench":"gzip"}],"bounds":{"clusters":{"min":1,"max":3}},"budget":6}`, 2},
		{`{"workloads":[{"bench":"gzip"}],"bounds":{"width":{"min":1,"max":8},"clusters":{"min":1,"max":2}},"budget":12}`, 12},
	} {
		rec := post(testServer(Config{}), "/v1/optimize", tc.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200\nbody: %s", tc.body, rec.Code, rec.Body.String())
		}
		var resp OptimizeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.GridSize != tc.grid {
			t.Errorf("%s: grid_size = %d, want %d", tc.body, resp.GridSize, tc.grid)
		}
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
	return postStream(s, "/v1/optimize", body)
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

// TestStreamedOptimizeMidStreamErrorRow pins the failure after the
// first row: the 200 is already on the wire, so a live client gets the
// error as a final {"error": ...} row and no trailer. The fault is
// injected into the second candidate's evaluation (the evaluator passes
// the hook the bench name); with one worker the first candidate has been
// accepted and streamed by then. The error row carries the request's
// X-Request-ID, as a buffered error body would.
func TestStreamedOptimizeMidStreamErrorRow(t *testing.T) {
	s := testServer(Config{Workers: 1})
	var evals atomic.Int32
	s.panicHook = func(name string) {
		if name == "gzip" && evals.Add(1) == 2 {
			panic("injected evaluation failure")
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(optimizeBody))
	req.Header.Set("Accept", ndjsonContentType)
	req.Header.Set(httpfront.RequestIDHeader, "req-42")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (the failure follows the first row)\nbody: %s", rec.Code, rec.Body.String())
	}
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream has %d rows, want points plus an error row:\n%s", len(lines), rec.Body.String())
	}
	for _, line := range lines[:len(lines)-1] {
		var pt optimize.Point
		if err := json.Unmarshal([]byte(line), &pt); err != nil || pt.Eval == 0 {
			t.Fatalf("row %q before the error row is not a point (err %v)", line, err)
		}
	}
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("bad last row %q: %v", lines[len(lines)-1], err)
	}
	if msg, _ := last["error"].(string); !strings.Contains(msg, "injected evaluation failure") {
		t.Errorf("last row %q should be an error row naming the panic", lines[len(lines)-1])
	}
	if id, _ := last["request_id"].(string); id != "req-42" {
		t.Errorf("error row request_id = %q, want the request's %q", id, "req-42")
	}
	if _, ok := last["render"]; ok {
		t.Errorf("a failed stream must not end with a trailer: %q", lines[len(lines)-1])
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

// optimizeGoldenSpecs are the searches optimize.golden pins: each axis
// family, both scalar objectives, a pareto search with a TLB, clustered
// widths, and a mix with a registered workload ("wl", mcf's profile). In
// every lattice the cluster count divides each width and window.
var optimizeGoldenSpecs = []struct{ name, body string }{
	{"cpi width x window x rob", `{"workloads":[{"bench":"gzip"},{"bench":"mcf","weight":2}],` +
		`"bounds":{"width":{"min":2,"max":8,"step":2},"window":{"min":16,"max":64,"step":16},"rob":{"min":64,"max":256,"step":64}},` +
		`"budget":40,"n":20000}`},
	{"cpi_depth over depth", `{"workloads":[{"bench":"vortex"}],"bounds":{"depth":{"min":2,"max":20}},` +
		`"objective":"cpi_depth","budget":12,"n":20000}`},
	{"pareto cpi vs area with a tlb", `{"workloads":[{"bench":"gzip"},{"bench":"twolf"}],` +
		`"bounds":{"width":{"min":1,"max":8},"rob":{"min":48,"max":256,"step":16}},` +
		`"objective":"pareto","pareto":["cpi","area"],"budget":30,"tlb":true,"n":20000}`},
	{"clusters x width", `{"workloads":[{"bench":"gzip"}],` +
		`"bounds":{"width":{"min":2,"max":8,"step":2},"clusters":{"min":1,"max":2}},"budget":8,"n":20000}`},
	{"registered workload in the mix", `{"workloads":[{"bench":"wl"},{"bench":"gzip"}],` +
		`"bounds":{"window":{"min":16,"max":96,"step":16},"rob":{"min":96,"max":192,"step":32}},"budget":16,"n":20000}`},
}

// TestOptimizeGolden pins the buffered /v1/optimize bodies of
// optimizeGoldenSpecs byte for byte, so a change to how candidates are
// evaluated cannot move a CPI, a frontier or an accounting field
// unnoticed. Regenerate with
//
//	go test ./internal/server -run TestOptimizeGolden -update
func TestOptimizeGolden(t *testing.T) {
	s := testServer(Config{N: 20000})
	register(t, s, "wl", profileJSON(t, "mcf", "wl"), "")
	var sb strings.Builder
	for _, spec := range optimizeGoldenSpecs {
		rec := post(s, "/v1/optimize", spec.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d\nbody: %s", spec.name, rec.Code, rec.Body.String())
		}
		fmt.Fprintf(&sb, "== %s\n%s", spec.name, rec.Body.String())
	}
	checkGolden(t, "optimize.golden", sb.String())
}

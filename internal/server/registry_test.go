package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fomodel/internal/artifact"
	"fomodel/internal/registry"
	"fomodel/internal/workload"
)

// profileJSON renders a registerable profile body derived from a
// built-in, renamed to name.
func profileJSON(t *testing.T, builtin, name string) string {
	t.Helper()
	p, err := workload.ByName(builtin)
	if err != nil {
		t.Fatal(err)
	}
	p.Name = name
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// mutatedProfileJSON renders gzip's profile, named "ok", after mutate.
func mutatedProfileJSON(t *testing.T, mutate func(*workload.Profile)) string {
	t.Helper()
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	p.Name = "ok"
	mutate(&p)
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// doReq runs one request with an optional tenant header through the
// full handler chain.
func doReq(s *Server, method, path, body, tenant string) *httptest.ResponseRecorder {
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func register(t *testing.T, s *Server, name, body, tenant string) WorkloadRegistration {
	t.Helper()
	rec := doReq(s, http.MethodPost, "/v1/workloads/"+name, body, tenant)
	if rec.Code != http.StatusOK {
		t.Fatalf("register %s: status %d\nbody: %s", name, rec.Code, rec.Body.String())
	}
	var reg WorkloadRegistration
	if err := json.Unmarshal(rec.Body.Bytes(), &reg); err != nil {
		t.Fatalf("register %s: bad body: %v", name, err)
	}
	return reg
}

func TestWorkloadRegisterGetDeleteFlow(t *testing.T) {
	s := testServer(Config{})
	body := profileJSON(t, "gzip", "mine")

	reg := register(t, s, "mine", body, "")
	if reg.Name != "mine" || reg.Tenant != "default" || reg.ContentHash == "" {
		t.Errorf("registration = %+v", reg)
	}

	got := doReq(s, http.MethodGet, "/v1/workloads/mine", "", "")
	if got.Code != http.StatusOK {
		t.Fatalf("get: status %d", got.Code)
	}
	var read WorkloadRegistration
	if err := json.Unmarshal(got.Body.Bytes(), &read); err != nil {
		t.Fatal(err)
	}
	if read.ContentHash != reg.ContentHash || read.Profile.Name != "mine" {
		t.Errorf("get did not round-trip: %+v", read)
	}

	del := doReq(s, http.MethodDelete, "/v1/workloads/mine", "", "")
	if del.Code != http.StatusOK {
		t.Fatalf("delete: status %d\nbody: %s", del.Code, del.Body.String())
	}
	if rec := doReq(s, http.MethodGet, "/v1/workloads/mine", "", ""); rec.Code != http.StatusNotFound {
		t.Errorf("get after delete: status %d, want 404", rec.Code)
	}
	if rec := doReq(s, http.MethodDelete, "/v1/workloads/mine", "", ""); rec.Code != http.StatusNotFound {
		t.Errorf("second delete: status %d, want 404", rec.Code)
	}
}

func TestWorkloadRegistryStatuses(t *testing.T) {
	s := testServer(Config{Registry: registry.New(registry.Config{MaxPerTenant: 1})})
	gzipBody := profileJSON(t, "gzip", "")

	cases := []struct {
		name   string
		run    func() *httptest.ResponseRecorder
		status int
	}{
		{"builtin collision", func() *httptest.ResponseRecorder {
			return doReq(s, http.MethodPost, "/v1/workloads/gzip", gzipBody, "")
		}, http.StatusBadRequest},
		{"invalid name", func() *httptest.ResponseRecorder {
			return doReq(s, http.MethodPost, "/v1/workloads/bad%7Cname", gzipBody, "")
		}, http.StatusBadRequest},
		{"invalid tenant", func() *httptest.ResponseRecorder {
			return doReq(s, http.MethodPost, "/v1/workloads/ok", gzipBody, "bad tenant")
		}, http.StatusBadRequest},
		{"invalid profile", func() *httptest.ResponseRecorder {
			return doReq(s, http.MethodPost, "/v1/workloads/ok", `{"name":"ok"}`, "")
		}, http.StatusBadRequest},
		// Sizes that once passed validation and crashed every predict.
		{"data size overflow", func() *httptest.ResponseRecorder {
			return doReq(s, http.MethodPost, "/v1/workloads/ok", mutatedProfileJSON(t, func(p *workload.Profile) { p.DataHotSize = 1 << 63 }), "")
		}, http.StatusBadRequest},
		{"block count overflow", func() *httptest.ResponseRecorder {
			return doReq(s, http.MethodPost, "/v1/workloads/ok", mutatedProfileJSON(t, func(p *workload.Profile) { p.NumBlocks = 1 << 32 }), "")
		}, http.StatusBadRequest},
		{"cross-tenant replace", func() *httptest.ResponseRecorder {
			register(t, s, "shared", profileJSON(t, "gzip", "shared"), "alice")
			return doReq(s, http.MethodPost, "/v1/workloads/shared", profileJSON(t, "gzip", "shared"), "bob")
		}, http.StatusConflict},
		{"cross-tenant delete", func() *httptest.ResponseRecorder {
			return doReq(s, http.MethodDelete, "/v1/workloads/shared", "", "bob")
		}, http.StatusConflict},
		{"quota exceeded", func() *httptest.ResponseRecorder {
			return doReq(s, http.MethodPost, "/v1/workloads/second", profileJSON(t, "mcf", "second"), "alice")
		}, http.StatusForbidden},
		{"missing name", func() *httptest.ResponseRecorder {
			return doReq(s, http.MethodGet, "/v1/workloads/absent", "", "")
		}, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := tc.run()
			if rec.Code != tc.status {
				t.Errorf("status %d, want %d\nbody: %s", rec.Code, tc.status, rec.Body.String())
			}
		})
	}
}

// TestRegisteredPredictSharesContentKeyedCache pins the content-hash
// contract: a registered clone of a built-in profile reuses the
// built-in's trace generation (same content hash, name aside), and its
// prediction matches the built-in's numbers exactly while the response
// carries the registered name.
func TestRegisteredPredictSharesContentKeyedCache(t *testing.T) {
	s := testServer(Config{})
	register(t, s, "gzip-clone", profileJSON(t, "gzip", "gzip-clone"), "")

	builtin := post(s, "/v1/predict", `{"bench":"gzip"}`)
	if builtin.Code != http.StatusOK {
		t.Fatalf("builtin predict: %d\n%s", builtin.Code, builtin.Body.String())
	}
	named := post(s, "/v1/predict", `{"bench":"gzip-clone"}`)
	if named.Code != http.StatusOK {
		t.Fatalf("registered predict: %d\n%s", named.Code, named.Body.String())
	}
	var a, b PredictRecord
	if err := json.Unmarshal(builtin.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(named.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if b.Bench != "gzip-clone" {
		t.Errorf("bench = %q, want the registered name", b.Bench)
	}
	// Only the workload's name may differ between the two records.
	bi := b.Inputs
	bi.Name = a.Inputs.Name
	if a.Estimate != b.Estimate || a.Inputs != bi {
		t.Errorf("identical content produced different predictions:\n%+v\n%+v", a, b)
	}

	// The same registered request again is a response-cache hit with
	// byte-identical bytes.
	again := post(s, "/v1/predict", `{"bench":"gzip-clone"}`)
	if got := again.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("X-Cache = %q, want hit", got)
	}
	if again.Body.String() != named.Body.String() {
		t.Error("cached registered predict differs from computed one")
	}
}

// TestReregisterNeverServesStaleBytes is the stale-bytes property test:
// register, predict, delete, re-register the SAME name with DIFFERENT
// content — the new prediction must never be the first profile's cached
// bytes.
func TestReregisterNeverServesStaleBytes(t *testing.T) {
	s := testServer(Config{})
	register(t, s, "wl", profileJSON(t, "gzip", "wl"), "")
	first := post(s, "/v1/predict", `{"bench":"wl"}`)
	if first.Code != http.StatusOK {
		t.Fatalf("first predict: %d\n%s", first.Code, first.Body.String())
	}

	if rec := doReq(s, http.MethodDelete, "/v1/workloads/wl", "", ""); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d", rec.Code)
	}
	if rec := post(s, "/v1/predict", `{"bench":"wl"}`); rec.Code != http.StatusBadRequest {
		t.Errorf("predict after delete: %d, want 400", rec.Code)
	}

	register(t, s, "wl", profileJSON(t, "mcf", "wl"), "")
	second := post(s, "/v1/predict", `{"bench":"wl"}`)
	if second.Code != http.StatusOK {
		t.Fatalf("second predict: %d\n%s", second.Code, second.Body.String())
	}
	if second.Body.String() == first.Body.String() {
		t.Fatal("re-registered workload served the previous profile's cached bytes")
	}
	// The new content must match an mcf-content prediction exactly.
	var mcfLike, reRegistered PredictRecord
	mcf := post(s, "/v1/predict", `{"bench":"mcf"}`)
	if err := json.Unmarshal(mcf.Body.Bytes(), &mcfLike); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second.Body.Bytes(), &reRegistered); err != nil {
		t.Fatal(err)
	}
	if mcfLike.Estimate != reRegistered.Estimate {
		t.Errorf("re-registered profile's prediction does not reflect the new content")
	}
}

// TestForgedContentFieldIsOverwritten pins the anti-forgery rule: the
// predict wire shape exposes "content" for canonical keys, but the
// server overwrites whatever the client sent.
func TestForgedContentFieldIsOverwritten(t *testing.T) {
	s := testServer(Config{})
	honest := post(s, "/v1/predict", `{"bench":"gzip"}`)
	forged := post(s, "/v1/predict", `{"bench":"gzip","content":"deadbeef"}`)
	if forged.Code != http.StatusOK {
		t.Fatalf("forged-content predict: %d\n%s", forged.Code, forged.Body.String())
	}
	if forged.Body.String() != honest.Body.String() {
		t.Error("client-supplied content changed the response")
	}
	if got := forged.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("X-Cache = %q — forged content forked the cache key", got)
	}
}

func TestRegisteredNameInSweepBatchOptimize(t *testing.T) {
	s := testServer(Config{})
	register(t, s, "wl", profileJSON(t, "gzip", "wl"), "")

	sweep := post(s, "/v1/sweep", `{"param":"rob","benches":["wl"],"values":[64,128]}`)
	if sweep.Code != http.StatusOK {
		t.Fatalf("sweep: %d\n%s", sweep.Code, sweep.Body.String())
	}
	if !strings.Contains(sweep.Body.String(), `"wl"`) {
		t.Error("sweep response does not mention the registered name")
	}

	batch := post(s, "/v1/batch", `{"items":[{"bench":"wl"},{"bench":"gzip"}]}`)
	if batch.Code != http.StatusOK {
		t.Fatalf("batch: %d\n%s", batch.Code, batch.Body.String())
	}
	var br BatchResponse
	if err := json.Unmarshal(batch.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != 2 || br.Items[0].Status != http.StatusOK {
		t.Fatalf("batch items: %+v", br.Items)
	}

	opt := post(s, "/v1/optimize",
		`{"workloads":[{"bench":"wl"}],"bounds":{"width":{"min":1,"max":2}},"budget":4}`)
	if opt.Code != http.StatusOK {
		t.Fatalf("optimize: %d\n%s", opt.Code, opt.Body.String())
	}

	// Unknown names still fail everywhere.
	if rec := post(s, "/v1/sweep", `{"param":"rob","benches":["nope"],"values":[32]}`); rec.Code != http.StatusBadRequest {
		t.Errorf("sweep with unknown bench: %d, want 400", rec.Code)
	}
	if rec := post(s, "/v1/optimize",
		`{"workloads":[{"bench":"nope"}],"bounds":{"width":{"min":1,"max":2}},"budget":4}`); rec.Code != http.StatusBadRequest {
		t.Errorf("optimize with unknown bench: %d, want 400", rec.Code)
	}
}

// TestRegistrationsSurviveRestart pins daemon-restart persistence
// through the artifact store.
func TestRegistrationsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	store1, err := artifact.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1 := testServer(Config{Store: store1})
	reg := register(t, s1, "wl", profileJSON(t, "gzip", "wl"), "alice")
	first := post(s1, "/v1/predict", `{"bench":"wl"}`)
	if first.Code != http.StatusOK {
		t.Fatalf("predict: %d", first.Code)
	}

	// "Restart": fresh store handle, fresh registry loaded from disk,
	// fresh server — as the daemon main does at boot.
	store2, err := artifact.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := registry.New(registry.Config{Store: store2})
	if n, err := reg2.Load(); err != nil || n != 1 {
		t.Fatalf("Load = (%d, %v), want (1, nil)", n, err)
	}
	s2 := testServer(Config{Store: store2, Registry: reg2})
	got := doReq(s2, http.MethodGet, "/v1/workloads/wl", "", "")
	if got.Code != http.StatusOK {
		t.Fatalf("get after restart: %d", got.Code)
	}
	var read WorkloadRegistration
	if err := json.Unmarshal(got.Body.Bytes(), &read); err != nil {
		t.Fatal(err)
	}
	if read.ContentHash != reg.ContentHash || read.Tenant != "alice" {
		t.Errorf("restored registration %+v, want hash %s tenant alice", read, reg.ContentHash)
	}
	second := post(s2, "/v1/predict", `{"bench":"wl"}`)
	if second.Code != http.StatusOK {
		t.Fatalf("predict after restart: %d\n%s", second.Code, second.Body.String())
	}
	if second.Body.String() != first.Body.String() {
		t.Error("post-restart predict differs from pre-restart bytes")
	}
}

func TestRegistryMetricsExposed(t *testing.T) {
	s := testServer(Config{})
	register(t, s, "wl", profileJSON(t, "gzip", "wl"), "alice")
	if rec := post(s, "/v1/predict", `{"bench":"wl"}`); rec.Code != http.StatusOK {
		t.Fatalf("predict: %d", rec.Code)
	}
	post(s, "/v1/predict", `{"bench":"wl"}`) // cache hit

	m := get(s, "/metrics").Body.String()
	for _, want := range []string{
		"fomodeld_registry_registrations_total 1",
		`fomodeld_registry_workloads{tenant="alice"} 1`,
		`fomodeld_registry_bytes{tenant="alice"}`,
		fmt.Sprintf(`fomodeld_registered_workload_requests_total{workload="wl"} 2`),
		fmt.Sprintf(`fomodeld_registered_workload_cache_hits_total{workload="wl"} 1`),
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

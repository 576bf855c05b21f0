package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// batchBody builds a /v1/batch request body from raw item objects.
func batchBody(items ...string) string {
	return `{"items":[` + strings.Join(items, ",") + `]}`
}

// decodeBatch decodes a 200 /v1/batch response.
func decodeBatch(t *testing.T, body []byte) BatchResponse {
	t.Helper()
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("batch response is not JSON: %v\nbody: %s", err, body)
	}
	return resp
}

// TestBatchMatchesPredict pins the batch contract at its core: each
// item's body is byte-for-byte the response the equivalent /v1/predict
// call returns, in request order.
func TestBatchMatchesPredict(t *testing.T) {
	s := testServer(Config{})
	items := []string{
		`{"bench":"gzip"}`,
		`{"bench":"mcf","sim":true}`,
		`{"bench":"vortex","machine":{"width":8}}`,
	}

	rec := post(s, "/v1/batch", batchBody(items...))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d\nbody: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBatch(t, rec.Body.Bytes())
	if len(resp.Items) != len(items) {
		t.Fatalf("batch returned %d items, want %d", len(resp.Items), len(items))
	}
	for i, item := range resp.Items {
		single := post(s, "/v1/predict", items[i])
		if single.Code != http.StatusOK {
			t.Fatalf("predict %d: status = %d\nbody: %s", i, single.Code, single.Body.String())
		}
		if item.Status != http.StatusOK {
			t.Errorf("item %d: status = %d, want 200 (error %q)", i, item.Status, item.Error)
			continue
		}
		if item.Body != single.Body.String() {
			t.Errorf("item %d: batch body differs from /v1/predict body\nbatch:\n%s\npredict:\n%s",
				i, item.Body, single.Body.String())
		}
	}
}

// TestBatchItemIsolation pins that invalid items fail in place with a
// per-item 400 while the valid items complete normally.
func TestBatchItemIsolation(t *testing.T) {
	s := testServer(Config{})
	rec := post(s, "/v1/batch", batchBody(
		`{"bench":"gzip"}`,
		`{"bench":"nope"}`,
		`{"bench":"mcf","n":10}`,
		`{"bench":"vortex"}`,
	))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d\nbody: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBatch(t, rec.Body.Bytes())
	if len(resp.Items) != 4 {
		t.Fatalf("items = %d, want 4", len(resp.Items))
	}
	wantStatus := []int{200, 400, 400, 200}
	wantErrSub := []string{"", "unknown profile", "outside", ""}
	for i, item := range resp.Items {
		if item.Status != wantStatus[i] {
			t.Errorf("item %d: status = %d, want %d", i, item.Status, wantStatus[i])
		}
		if !strings.Contains(item.Error, wantErrSub[i]) {
			t.Errorf("item %d: error %q does not mention %q", i, item.Error, wantErrSub[i])
		}
		if wantStatus[i] == 200 && item.Body == "" {
			t.Errorf("item %d: 200 item has no body", i)
		}
		if wantStatus[i] != 200 && item.Body != "" {
			t.Errorf("item %d: failed item carries a body", i)
		}
	}
}

// TestBatchValidation pins the request-level rejections: an empty batch
// and an oversized batch are 400s before any computation starts.
func TestBatchValidation(t *testing.T) {
	s := testServer(Config{})

	rec := post(s, "/v1/batch", `{"items":[]}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch: status = %d, want 400", rec.Code)
	}
	if msg := errorBody(t, rec); !strings.Contains(msg, "at least one") {
		t.Errorf("empty-batch error %q does not explain the minimum", msg)
	}

	items := make([]string, MaxBatchItems+1)
	for i := range items {
		items[i] = fmt.Sprintf(`{"bench":"gzip","seed":%d}`, i+1)
	}
	rec = post(s, "/v1/batch", batchBody(items...))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversized batch: status = %d, want 400", rec.Code)
	}
	if msg := errorBody(t, rec); !strings.Contains(msg, "item limit") {
		t.Errorf("oversized-batch error %q does not mention the item limit", msg)
	}
}

// TestBatchSharesResponseCache pins per-item cache participation: items
// join the same response-cache entries as /v1/predict, in both
// directions, including duplicates within one batch.
func TestBatchSharesResponseCache(t *testing.T) {
	s := testServer(Config{})

	// Warm one entry through the single endpoint.
	if rec := post(s, "/v1/predict", `{"bench":"gzip"}`); rec.Code != http.StatusOK {
		t.Fatalf("warm predict: status = %d", rec.Code)
	}

	rec := post(s, "/v1/batch", batchBody(
		`{"bench":"gzip"}`, // warmed above -> hit
		`{"bench":"mcf"}`,  // fresh -> miss
		`{"bench":"mcf"}`,  // duplicate in-batch -> hit (joins or follows its twin)
	))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d\nbody: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBatch(t, rec.Body.Bytes())
	if got := resp.Items[0].Cache; got != "hit" {
		t.Errorf("item 0 (warmed) cache = %q, want hit", got)
	}
	mcf := []string{resp.Items[1].Cache, resp.Items[2].Cache}
	hits := 0
	for _, c := range mcf {
		if c == "hit" {
			hits++
		}
	}
	if hits != 1 {
		t.Errorf("duplicate mcf items cache = %v, want exactly one hit", mcf)
	}
	if resp.Items[1].Body != resp.Items[2].Body {
		t.Errorf("duplicate items returned different bodies")
	}

	// And the reverse direction: a single predict after the batch hits
	// the entry the batch computed.
	single := post(s, "/v1/predict", `{"bench":"mcf"}`)
	if got := single.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("predict after batch X-Cache = %q, want hit", got)
	}
	if single.Body.String() != resp.Items[1].Body {
		t.Errorf("predict body differs from batch item body")
	}
}

// TestBatchItemPanicIsolated pins worker panic recovery: a panic while
// computing one item becomes that item's 500 with a structured error,
// the sibling items succeed, and the server keeps serving.
func TestBatchItemPanicIsolated(t *testing.T) {
	s := testServer(Config{})
	s.panicHook = func(name string) {
		if name == "twolf" {
			panic("injected batch failure")
		}
	}
	rec := post(s, "/v1/batch", batchBody(
		`{"bench":"gzip"}`,
		`{"bench":"twolf"}`,
		`{"bench":"mcf"}`,
	))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d\nbody: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBatch(t, rec.Body.Bytes())
	if got := resp.Items[1].Status; got != http.StatusInternalServerError {
		t.Errorf("panicked item status = %d, want 500", got)
	}
	if !strings.Contains(resp.Items[1].Error, "internal panic") ||
		!strings.Contains(resp.Items[1].Error, "injected batch failure") {
		t.Errorf("panicked item error = %q, want an internal panic mentioning the cause", resp.Items[1].Error)
	}
	for _, i := range []int{0, 2} {
		if resp.Items[i].Status != http.StatusOK {
			t.Errorf("sibling item %d: status = %d, want 200 (error %q)",
				i, resp.Items[i].Status, resp.Items[i].Error)
		}
	}

	// The panic must not poison the cache: retrying the item succeeds.
	s.panicHook = nil
	retry := post(s, "/v1/predict", `{"bench":"twolf"}`)
	if retry.Code != http.StatusOK {
		t.Errorf("retry after panic: status = %d, want 200", retry.Code)
	}
}

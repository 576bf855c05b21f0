package server

import (
	"net/http"
	"strings"
	"testing"
)

// TestOversizedMachinesRejected pins that machines past uarch.Config's
// upper bounds are 400s on every endpoint that can reach the simulator,
// before anything sizes a buffer from them, and that the daemon keeps
// serving afterwards.
func TestOversizedMachinesRejected(t *testing.T) {
	s := testServer(Config{})
	huge := "17179869184" // 1<<34

	cases := []struct {
		name, path, body, wantSub string
	}{
		{"sweep window", "/v1/sweep",
			`{"param":"window","benches":["gzip"],"values":[` + huge + `]}`, "window size"},
		{"sweep width", "/v1/sweep",
			`{"param":"width","benches":["gzip"],"values":[4,65]}`, "width 65"},
		{"sweep rob", "/v1/sweep",
			`{"param":"rob","benches":["gzip"],"values":[` + huge + `]}`, "ROB size"},
		{"sweep depth", "/v1/sweep",
			`{"param":"depth","benches":["gzip"],"values":[` + huge + `]}`, "front-end depth"},
		{"predict sim window", "/v1/predict",
			`{"bench":"gzip","sim":true,"machine":{"window":` + huge + `,"rob":` + huge + `}}`, "window size"},
		{"predict sim fetch buffer", "/v1/predict",
			`{"bench":"gzip","sim":true,"machine":{"fetch_buffer":` + huge + `}}`, "fetch buffer"},
		{"predict model-only width", "/v1/predict",
			`{"bench":"gzip","machine":{"width":1000}}`, "width 1000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(s, tc.path, tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400\nbody: %s", rec.Code, rec.Body.String())
			}
			if msg := errorBody(t, rec); !strings.Contains(msg, tc.wantSub) {
				t.Errorf("error %q does not mention %q", msg, tc.wantSub)
			}
		})
	}

	t.Run("batch item", func(t *testing.T) {
		rec := post(s, "/v1/batch", batchBody(
			`{"bench":"gzip","sim":true,"machine":{"window":`+huge+`,"rob":`+huge+`}}`,
			`{"bench":"gzip"}`,
		))
		if rec.Code != http.StatusOK {
			t.Fatalf("batch status = %d\nbody: %s", rec.Code, rec.Body.String())
		}
		resp := decodeBatch(t, rec.Body.Bytes())
		if len(resp.Items) != 2 {
			t.Fatalf("items = %d, want 2", len(resp.Items))
		}
		if it := resp.Items[0]; it.Status != http.StatusBadRequest || !strings.Contains(it.Error, "window size") {
			t.Errorf("oversized item: status %d, error %q; want 400 naming the window size", it.Status, it.Error)
		}
		if it := resp.Items[1]; it.Status != http.StatusOK {
			t.Errorf("sibling item: status %d, want 200 (error %q)", it.Status, it.Error)
		}
	})

	if rec := get(s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz after the rejections: status %d", rec.Code)
	}
	if rec := post(s, "/v1/sweep", `{"param":"window","benches":["gzip"],"values":[32]}`); rec.Code != http.StatusOK {
		t.Fatalf("in-bounds sweep after the rejections: status %d\nbody: %s", rec.Code, rec.Body.String())
	}
}

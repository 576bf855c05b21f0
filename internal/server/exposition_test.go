package server

import (
	"flag"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"fomodel/internal/metrics/metricstest"
)

// logMask blanks the fields of an access-log line that vary from run to
// run: the timestamp, the duration, and the size of a body that carries
// the uptime or a latency sum.
var (
	logMask    = regexp.MustCompile(`"(time|dur_ms)":("[^"]*"|[0-9]+)`)
	statusPath = regexp.MustCompile(`("path":"/(?:healthz|readyz|metrics)".*"bytes":)[0-9]+`)
)

// maskLog applies logMask and statusPath to a captured access log.
func maskLog(log string) string {
	return statusPath.ReplaceAllString(logMask.ReplaceAllString(log, `"$1":_`), `${1}_`)
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got with testdata/name, rewriting the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s changed; rerun with -update if intentional.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestExpositionSkeleton pins the daemon's /metrics shape and its access
// log, with a store and a registered workload so every optional family
// appears: the HELP and TYPE lines, sample names and labels in order
// with the values masked, and one log line per request with its time
// and duration masked. Regenerate with
//
//	go test ./internal/server -run TestExpositionSkeleton -update
func TestExpositionSkeleton(t *testing.T) {
	var logBuf syncBuffer
	s := New(Config{N: 20000, MaxInflight: 1, Store: openTestStore(t, t.TempDir())},
		slog.New(slog.NewJSONHandler(&logBuf, nil)))
	send := func(method, path, body string, hdr map[string]string) {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}
	send(http.MethodGet, "/healthz", "", nil)
	send(http.MethodGet, "/readyz", "", nil)
	send(http.MethodPost, "/v1/predict", `{"bench":"gzip","sim":true}`, nil)
	send(http.MethodPost, "/v1/predict", `{"bench":"gzip","sim":true}`, map[string]string{"X-Request-ID": "id-1"})
	send(http.MethodPost, "/v1/predict", `{"bench":"nope"}`, map[string]string{"X-Request-ID": "id-2"})
	send(http.MethodPost, "/v1/predict", `{"bench":"gzip"`+strings.Repeat(" ", MaxBodyBytes)+`}`, nil)
	send(http.MethodPost, "/v1/workloads/wl", profileJSON(t, "gzip", "wl"), map[string]string{"X-Tenant": "alice"})
	send(http.MethodPost, "/v1/predict", `{"bench":"wl"}`, nil)
	send(http.MethodPost, "/v1/batch", `{"items":[{"bench":"gzip"},{"bench":"wl","seed":2}]}`, nil)
	send(http.MethodGet, "/v1/workloads/wl", "", nil)
	// A shed request: one predict holds the only slot.
	s.gate = make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		send(http.MethodPost, "/v1/predict", `{"bench":"gzip"}`, nil)
	}()
	for s.inflight.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	send(http.MethodPost, "/v1/predict", `{"bench":"gzip"}`, map[string]string{"X-Request-ID": "id-3"})
	close(s.gate)
	<-done
	s.gate = nil

	rec := get(s, "/metrics")
	if got := rec.Header().Get("Content-Type"); got != "text/plain; version=0.0.4" {
		t.Errorf("/metrics Content-Type = %q", got)
	}
	body := rec.Body.String()
	metricstest.Check(t, body)
	checkGolden(t, "metrics.golden", metricstest.Skeleton(body))
	checkGolden(t, "access_log.golden", maskLog(logBuf.String()))
}

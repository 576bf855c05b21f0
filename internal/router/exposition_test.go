package router

import (
	"encoding/json"
	"flag"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fomodel/internal/metrics/metricstest"
	"fomodel/internal/server"
	"fomodel/internal/workload"
)

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

// logMask blanks what varies between runs in a proxy access-log line:
// the timestamp, the duration, a minted request ID, the replica a key
// happened to hash to (the test replicas listen on random ports), and
// the size of a body that carries the uptime or a latency sum.
var (
	logMask    = regexp.MustCompile(`"(time|dur_ms|replica)":("[^"]*"|[0-9]+)`)
	mintedID   = regexp.MustCompile(`"request_id":"[0-9a-f]+-[0-9a-f]+"`)
	statusPath = regexp.MustCompile(`("path":"/(?:healthz|readyz|metrics)".*"bytes":)[0-9]+`)
)

func maskLog(log string) string {
	log = logMask.ReplaceAllString(log, `"$1":_`)
	log = mintedID.ReplaceAllString(log, `"request_id":_`)
	return statusPath.ReplaceAllString(log, `${1}_`)
}

// TestExpositionSkeleton pins the proxy's /metrics shape and its access
// log over two real daemons: the HELP and TYPE lines, sample names and
// labels in order with the values masked (replica URLs by position), and
// one log line per request. Regenerate with
//
//	go test ./internal/router -run TestExpositionSkeleton -update
func TestExpositionSkeleton(t *testing.T) {
	_, repA := newDaemon(t)
	_, repB := newDaemon(t)
	// The proxy logs only from inside the requests below, which this
	// goroutine serves one at a time.
	var logBuf strings.Builder
	rt, err := New(Config{Replicas: []string{repA.URL, repB.URL}, Defaults: testDefaults()},
		slog.New(slog.NewJSONHandler(&logBuf, nil)))
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	send := func(method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	prof.Name = "wl"
	profJSON, err := json.Marshal(prof)
	if err != nil {
		t.Fatal(err)
	}
	send(http.MethodGet, "/healthz", "", nil)
	send(http.MethodGet, "/readyz", "", nil)
	send(http.MethodPost, "/v1/predict", `{"bench":"gzip"}`, nil)
	send(http.MethodPost, "/v1/predict", `{"bench":"gzip"}`, map[string]string{"X-Request-ID": "caller-1"})
	send(http.MethodPost, "/v1/predict", `{"bench":"nope"}`, nil)
	send(http.MethodPost, "/v1/predict", `{"bench":"gzip","bogus":1}`, nil)
	send(http.MethodPost, "/v1/predict", `{"bench":"gzip"`+strings.Repeat(" ", server.MaxBodyBytes)+`}`, map[string]string{"X-Request-ID": "caller-2"})
	send(http.MethodPost, "/v1/workloads/wl", string(profJSON), map[string]string{"X-Tenant": "alice"})
	send(http.MethodGet, "/v1/workloads/wl", "", nil)
	send(http.MethodPost, "/v1/batch", `{"items":[{"bench":"wl"}]}`, nil)

	rec := send(http.MethodGet, "/metrics", "", nil)
	if got := rec.Header().Get("Content-Type"); got != "text/plain; version=0.0.4" {
		t.Errorf("/metrics Content-Type = %q", got)
	}
	body := rec.Body.String()
	metricstest.Check(t, body)
	body = strings.NewReplacer(repA.URL, "replica-a", repB.URL, "replica-b").Replace(body)
	checkGolden(t, "metrics.golden", metricstest.Skeleton(body))
	checkGolden(t, "access_log.golden", maskLog(logBuf.String()))
}

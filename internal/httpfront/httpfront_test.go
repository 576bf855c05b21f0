package httpfront

import (
	"bytes"
	"context"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// serve runs one request through a front-wrapped handler and returns the
// recorder and the access-log line with its time and duration masked.
func serve(t *testing.T, f *Front, log *bytes.Buffer, h HandlerFunc, req *http.Request) (*httptest.ResponseRecorder, string) {
	t.Helper()
	mux := http.NewServeMux()
	f.Handle(mux, "POST /v1/thing/{name}", h)
	log.Reset()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	line := regexp.MustCompile(`"(time|dur_ms)":("[^"]*"|[0-9]+)`).ReplaceAllString(log.String(), `"$1":_`)
	return rec, strings.TrimSpace(line)
}

func TestHandleCountsAndLogs(t *testing.T) {
	var log bytes.Buffer
	f := New(slog.New(slog.NewJSONHandler(&log, nil)), nil)

	// A handler that writes nothing is a 200 with no body; a request
	// without an ID gets none.
	rec, line := serve(t, f, &log, func(w *Writer, r *http.Request) {},
		httptest.NewRequest(http.MethodPost, "/v1/thing/x", nil))
	if rec.Header().Get(RequestIDHeader) != "" {
		t.Errorf("ID echoed for a request that had none")
	}
	want := `{"time":_,"level":"INFO","msg":"request","path":"/v1/thing/{name}","status":200,"dur_ms":_,"bytes":0}`
	if line != want {
		t.Errorf("log line\n got %s\nwant %s", line, want)
	}

	// The optional fields come in a fixed order after the four base ones.
	req := httptest.NewRequest(http.MethodPost, "/v1/thing/x", nil)
	req.Header.Set(RequestIDHeader, "id-7")
	rec, line = serve(t, f, &log, func(w *Writer, r *http.Request) {
		w.Cache, w.Replica = "hit", "http://r1"
		w.Write([]byte("abc"))
	}, req)
	if got := rec.Header().Get(RequestIDHeader); got != "id-7" {
		t.Errorf("X-Request-ID = %q, want it echoed", got)
	}
	want = `{"time":_,"level":"INFO","msg":"request","path":"/v1/thing/{name}","status":200,"dur_ms":_,"bytes":3,"cache":"hit","request_id":"id-7","replica":"http://r1"}`
	if line != want {
		t.Errorf("log line\n got %s\nwant %s", line, want)
	}

	// A client that left is counted and logged as 499.
	serve(t, f, &log, func(w *Writer, r *http.Request) { w.Code = StatusClientGone },
		httptest.NewRequest(http.MethodPost, "/v1/thing/y", nil))
	if got := f.Requests.Counter("/v1/thing/{name}", 200).Load(); got != 2 {
		t.Errorf("200 count = %d, want 2", got)
	}
	if got := f.Requests.Counter("/v1/thing/{name}", StatusClientGone).Load(); got != 1 {
		t.Errorf("499 count = %d, want 1", got)
	}
	if got := f.Latency.Snapshot().Count; got != 3 {
		t.Errorf("latency observations = %d, want 3", got)
	}
}

func TestMintedIDReachesRequestAndErrors(t *testing.T) {
	var log bytes.Buffer
	f := New(slog.New(slog.NewJSONHandler(&log, nil)), func() string { return "minted-1" })
	var seen string
	rec, _ := serve(t, f, &log, func(w *Writer, r *http.Request) {
		seen = r.Header.Get(RequestIDHeader)
		WriteError(w, http.StatusBadGateway, "upstream %s failed", "r1")
	}, httptest.NewRequest(http.MethodPost, "/v1/thing/x", nil))
	if seen != "minted-1" {
		t.Errorf("handler saw X-Request-ID %q, want the minted ID", seen)
	}
	if rec.Code != http.StatusBadGateway || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("status %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if want := `{"error":"upstream r1 failed","request_id":"minted-1"}` + "\n"; rec.Body.String() != want {
		t.Errorf("error body %q, want %q", rec.Body.String(), want)
	}
}

func TestReadBodyAndDecodeStrict(t *testing.T) {
	f := New(nil, nil)
	var log bytes.Buffer
	var body []byte
	read := func(w *Writer, r *http.Request) {
		var ok bool
		if body, ok = ReadBody(w, r, 8); ok {
			w.WriteHeader(http.StatusNoContent)
		}
	}
	rec, _ := serve(t, f, &log, read, httptest.NewRequest(http.MethodPost, "/v1/thing/x", strings.NewReader(`{"a":1}`)))
	if rec.Code != http.StatusNoContent || string(body) != `{"a":1}` {
		t.Errorf("within the bound: status %d, body %q", rec.Code, body)
	}
	rec, _ = serve(t, f, &log, read, httptest.NewRequest(http.MethodPost, "/v1/thing/x", strings.NewReader(`{"a": 1}`+" ")))
	if want := `{"error":"request body exceeds the 8-byte limit"}` + "\n"; rec.Code != http.StatusRequestEntityTooLarge || rec.Body.String() != want {
		t.Errorf("over the bound: status %d, body %q", rec.Code, rec.Body.String())
	}

	var v struct{ A int }
	for _, c := range []struct {
		in, err string
	}{
		{`{"A":1}`, ""},
		{`{"A":1,"B":2}`, `unknown field "B"`},
		{`{"A":1} {}`, "trailing data after the JSON object"},
		{`{"A":`, "unexpected EOF"},
	} {
		err := DecodeStrict([]byte(c.in), &v)
		if (err == nil) != (c.err == "") || (err != nil && !strings.Contains(err.Error(), c.err)) {
			t.Errorf("DecodeStrict(%s) = %v, want error containing %q", c.in, err, c.err)
		}
	}
}

// syncBuffer is a bytes.Buffer safe for a logger on another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
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

func TestServeDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var log syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, "testd", "127.0.0.1:0", http.NotFoundHandler(), time.Second,
			slog.New(slog.NewJSONHandler(&log, nil)), "k", 1)
	}()
	for !strings.Contains(log.String(), `"msg":"testd listening"`) {
		select {
		case err := <-done:
			t.Fatalf("Serve returned before listening: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve after cancel = %v, want nil", err)
	}
	for _, want := range []string{`"k":1`, `"msg":"shutting down, draining in-flight requests","timeout":"1s"`} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("log lacks %s:\n%s", want, log.String())
		}
	}
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	if err := Serve(context.Background(), "testd", taken.Addr().String(), http.NotFoundHandler(), time.Second, slog.Default()); err == nil {
		t.Error("Serve on an address already in use returned nil")
	}
}

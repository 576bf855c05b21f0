package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"fomodel/internal/experiments"
	"fomodel/internal/httpfront"
)

const sweepBody = `{"param":"width","benches":["gzip"],"values":[2,4,6,8]}`

const ndjsonContentType = httpfront.NDJSON

// postStream runs one request with the streaming Accept header.
func postStream(s *Server, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Accept", ndjsonContentType)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// postNDJSON runs one sweep request with the streaming Accept header.
func postNDJSON(s *Server, body string) *httptest.ResponseRecorder {
	return postStream(s, "/v1/sweep", body)
}

// parseStream splits an NDJSON sweep body into its point rows and the
// trailer row.
func parseStream(t *testing.T, body string) ([]experiments.SweepPoint, SweepTrailer) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream has %d rows, want points plus a trailer:\n%s", len(lines), body)
	}
	points := make([]experiments.SweepPoint, 0, len(lines)-1)
	for _, line := range lines[:len(lines)-1] {
		var pt experiments.SweepPoint
		if err := json.Unmarshal([]byte(line), &pt); err != nil {
			t.Fatalf("bad point row %q: %v", line, err)
		}
		points = append(points, pt)
	}
	var trailer SweepTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatalf("bad trailer row %q: %v", lines[len(lines)-1], err)
	}
	return points, trailer
}

// TestStreamedSweepMatchesBuffered pins the equivalence contract: the
// streamed rows carry exactly the information of the buffered response —
// reassembling them reproduces the buffered body byte for byte.
func TestStreamedSweepMatchesBuffered(t *testing.T) {
	s := testServer(Config{})

	buffered := post(s, "/v1/sweep", sweepBody)
	if buffered.Code != http.StatusOK {
		t.Fatalf("buffered sweep: status = %d\nbody: %s", buffered.Code, buffered.Body.String())
	}

	streamed := postNDJSON(s, sweepBody)
	if streamed.Code != http.StatusOK {
		t.Fatalf("streamed sweep: status = %d\nbody: %s", streamed.Code, streamed.Body.String())
	}
	if got := streamed.Header().Get("Content-Type"); got != ndjsonContentType {
		t.Errorf("streamed Content-Type = %q, want %q", got, ndjsonContentType)
	}
	if !streamed.Flushed {
		t.Errorf("streamed response was never flushed")
	}

	points, trailer := parseStream(t, streamed.Body.String())
	if len(points) != 4 {
		t.Fatalf("streamed %d points, want 4", len(points))
	}
	rebuilt, err := EncodeIndented(SweepResponse{
		SweepResult: &experiments.SweepResult{
			Title:      trailer.Title,
			Param:      trailer.Param,
			Points:     points,
			MeanAbsErr: trailer.MeanAbsErr,
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

// disconnectWriter is a ResponseWriter that drops the client after the
// first complete NDJSON row reaches it.
type disconnectWriter struct {
	header http.Header
	cancel context.CancelFunc
	mu     sync.Mutex
	rows   int
	flushs int
}

func (w *disconnectWriter) Header() http.Header { return w.header }
func (w *disconnectWriter) WriteHeader(int)     {}
func (w *disconnectWriter) Flush() {
	w.mu.Lock()
	w.flushs++
	w.mu.Unlock()
}
func (w *disconnectWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rows += strings.Count(string(p), "\n")
	if w.rows >= 1 {
		w.cancel()
	}
	return len(p), nil
}

// streamedEndpoints are the two streamed searches, each with the
// counter of the work it has run — simulator runs for the sweep's grid
// cells, model evaluations for the search's candidates — and the work
// its whole request would run.
var streamedEndpoints = []struct {
	name, path, body string
	work             func(s *Server) int64
	total            int64
}{
	{"sweep", "/v1/sweep", sweepBody, func(s *Server) int64 {
		_, sims := s.suite.CounterSources()
		return sims.Load()
	}, 4},
	{"optimize", "/v1/optimize", optimizeBody, func(s *Server) int64 { return s.optEvals.Load() }, 6},
}

// TestStreamedSweepDisconnectStopsCells pins streamed cancellation on
// both streamed endpoints: a client that vanishes mid-stream stops the
// remaining work — the work counter shows only what ran before the
// disconnect, not the full grid or budget.
func TestStreamedSweepDisconnectStopsCells(t *testing.T) {
	for _, ep := range streamedEndpoints {
		t.Run(ep.name, func(t *testing.T) {
			s := testServer(Config{Workers: 1})

			ctx, cancel := context.WithCancel(context.Background())
			req := httptest.NewRequest(http.MethodPost, ep.path, strings.NewReader(ep.body)).WithContext(ctx)
			req.Header.Set("Accept", ndjsonContentType)
			w := &disconnectWriter{header: make(http.Header), cancel: cancel}
			s.Handler().ServeHTTP(w, req)

			if w.rows != 1 {
				t.Errorf("rows after disconnect = %d, want 1", w.rows)
			}
			if w.flushs == 0 {
				t.Errorf("streamed rows were not flushed")
			}
			if got := ep.work(s); got >= ep.total || got < 1 {
				t.Errorf("work after disconnect = %d, want at least 1 but less than the whole request's %d", got, ep.total)
			}
		})
	}
}

// TestStreamedSweepPanicIs500 pins the streamed panic net on both
// streamed endpoints: a panic before the first row leaves becomes a
// structured 500, not a severed connection.
func TestStreamedSweepPanicIs500(t *testing.T) {
	for _, ep := range streamedEndpoints {
		t.Run(ep.name, func(t *testing.T) {
			s := testServer(Config{})
			s.panicHook = func(string) { panic("injected stream failure") }
			rec := postStream(s, ep.path, ep.body)
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("status = %d, want 500\nbody: %s", rec.Code, rec.Body.String())
			}
			if msg := errorBody(t, rec); !strings.Contains(msg, "internal panic") ||
				!strings.Contains(msg, "injected stream failure") {
				t.Errorf("error %q should name the panic", msg)
			}

			// The server survives: the same request succeeds once the
			// fault is gone.
			s.panicHook = nil
			if rec := postStream(s, ep.path, ep.body); rec.Code != http.StatusOK {
				t.Errorf("after panic: status = %d, want 200", rec.Code)
			}
		})
	}
}

// TestBufferedSweepPanicIs500 pins the pooled-worker panic contract on
// the buffered path: the panic surfaces as a structured 500 through the
// response cache's compute guard, waiters are not stranded, and the
// failure is not cached.
func TestBufferedSweepPanicIs500(t *testing.T) {
	s := testServer(Config{})
	s.panicHook = func(string) { panic("injected sweep failure") }
	rec := post(s, "/v1/sweep", sweepBody)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500\nbody: %s", rec.Code, rec.Body.String())
	}
	if msg := errorBody(t, rec); !strings.Contains(msg, "internal panic") {
		t.Errorf("error %q should name the panic", msg)
	}

	s.panicHook = nil
	retry := post(s, "/v1/sweep", sweepBody)
	if retry.Code != http.StatusOK {
		t.Errorf("sweep after panic: status = %d, want 200", retry.Code)
	}
	if got := retry.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("retry X-Cache = %q, want miss (panic outcome must not be cached)", got)
	}
}

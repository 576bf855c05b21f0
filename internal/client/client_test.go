package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fomodel/internal/experiments"
	"fomodel/internal/optimize"
	"fomodel/internal/server"
)

// testClient wires a client to a handler with an instant sleep hook that
// records the retry schedule.
func testClient(t *testing.T, h http.Handler) (*Client, *[]time.Duration) {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	delays := &[]time.Duration{}
	c := New(srv.URL)
	c.sleep = func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
	return c, delays
}

// realServer starts a full fomodeld handler chain for integration tests.
func realServer(t *testing.T, cfg server.Config) *Client {
	t.Helper()
	if cfg.N == 0 {
		cfg.N = 20000
	}
	srv := httptest.NewServer(server.New(cfg, nil).Handler())
	t.Cleanup(srv.Close)
	return New(srv.URL)
}

// TestRetryAfterParsing is the regression test for the HTTP-date form of
// Retry-After being treated as garbage: RFC 7231 allows both delta
// seconds and an HTTP-date, and the date form must be interpreted
// against the server's own Date header, not dropped.
func TestRetryAfterParsing(t *testing.T) {
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	stamp := func(t time.Time) string { return t.UTC().Format(http.TimeFormat) }
	cases := []struct {
		name       string
		retryAfter string
		date       string
		want       time.Duration
	}{
		{"absent", "", "", 0},
		{"delta seconds", "3", "", 3 * time.Second},
		{"delta zero", "0", "", 0},
		{"delta negative", "-2", "", 0},
		// An exact delta is honored as sent, even beyond MaxBackoff.
		{"delta beyond max backoff", "30", "", 30 * time.Second},
		{"http date", stamp(base.Add(4 * time.Second)), stamp(base), 4 * time.Second},
		{"http date in the past", stamp(base.Add(-time.Minute)), stamp(base), 0},
		// The date form is clamped to MaxBackoff: clock skew can inflate
		// it arbitrarily, unlike a delta.
		{"http date clamped", stamp(base.Add(time.Hour)), stamp(base), DefaultMaxBackoff},
		// No Date header: measured against local time, so a far-future
		// date still lands on the clamp.
		{"http date without date header", stamp(time.Now().Add(time.Hour)), "", DefaultMaxBackoff},
		{"garbage", "soon", "", 0},
	}
	c := New("http://unused")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := &http.Response{Header: http.Header{}}
			if tc.retryAfter != "" {
				resp.Header.Set("Retry-After", tc.retryAfter)
			}
			if tc.date != "" {
				resp.Header.Set("Date", tc.date)
			}
			if got := c.retryAfter(resp); got != tc.want {
				t.Errorf("retryAfter(%q, Date %q) = %v, want %v", tc.retryAfter, tc.date, got, tc.want)
			}
		})
	}
}

// TestRetryHonorsRetryAfterDate drives the date form through the full
// retry loop: the delay slept between attempts must be the date's offset
// from the response's Date header.
func TestRetryHonorsRetryAfterDate(t *testing.T) {
	var calls atomic.Int32
	c, delays := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			now := time.Now()
			w.Header().Set("Date", now.UTC().Format(http.TimeFormat))
			w.Header().Set("Retry-After", now.Add(2*time.Second).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{}`))
	}))
	c.jitter = func(d time.Duration) time.Duration {
		t.Error("jitter used despite Retry-After being present")
		return 0
	}
	if _, err := c.do(context.Background(), http.MethodGet, "/v1/workloads", nil, false); err != nil {
		t.Fatal(err)
	}
	if len(*delays) != 1 || (*delays)[0] != 2*time.Second {
		t.Errorf("delays = %v, want [2s]", *delays)
	}
}

// TestRetryHonorsRetryAfter pins the core retry contract: the server's
// Retry-After is used verbatim as the delay — no jitter, no backoff
// growth — across both retryable statuses.
func TestRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	c, delays := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "2")
			http.Error(w, `{"error":"saturated"}`, http.StatusTooManyRequests)
		case 2:
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
		default:
			fmt.Fprintln(w, `{"n":20000,"seed":1,"workloads":[]}`)
		}
	}))
	c.jitter = func(time.Duration) time.Duration {
		t.Error("jitter used despite Retry-After being present")
		return 0
	}

	if _, err := c.Workloads(context.Background()); err != nil {
		t.Fatalf("Workloads after retries: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	want := []time.Duration{2 * time.Second, time.Second}
	if len(*delays) != len(want) {
		t.Fatalf("delays = %v, want %v", *delays, want)
	}
	for i, d := range *delays {
		if d != want[i] {
			t.Errorf("delay %d = %v, want %v", i, d, want[i])
		}
	}
}

// TestBackoffScheduleWithoutRetryAfter pins the fallback schedule: with
// no Retry-After, each delay is a jittered draw from [backoff/2, backoff]
// with backoff doubling from BaseBackoff and capped at MaxBackoff.
func TestBackoffScheduleWithoutRetryAfter(t *testing.T) {
	c, delays := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"saturated"}`, http.StatusTooManyRequests)
	}))
	c.MaxRetries = 3
	c.BaseBackoff = 100 * time.Millisecond
	c.MaxBackoff = 300 * time.Millisecond

	_, err := c.Workloads(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("exhausted retries: err = %v, want a 429 APIError", err)
	}
	if !strings.Contains(apiErr.Error(), "saturated") {
		t.Errorf("error %q should carry the server message", apiErr.Error())
	}
	// Ceilings double then cap: 100ms, 200ms, 300ms.
	ceilings := []time.Duration{100, 200, 300}
	if len(*delays) != len(ceilings) {
		t.Fatalf("delays = %v, want %d draws", *delays, len(ceilings))
	}
	for i, d := range *delays {
		lo, hi := ceilings[i]*time.Millisecond/2, ceilings[i]*time.Millisecond
		if d < lo || d > hi {
			t.Errorf("delay %d = %v outside [%v, %v]", i, d, lo, hi)
		}
	}
}

// TestNoRetryOnBadRequest pins that only 429/503 are retried: a 400 is a
// terminal APIError after one attempt.
func TestNoRetryOnBadRequest(t *testing.T) {
	var calls atomic.Int32
	c, delays := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"unknown profile \"nope\""}`, http.StatusBadRequest)
	}))
	_, err := c.Predict(context.Background(), server.PredictRequest{Bench: "nope"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want a 400 APIError", err)
	}
	if calls.Load() != 1 || len(*delays) != 0 {
		t.Errorf("attempts = %d, sleeps = %d; want 1 attempt, 0 sleeps", calls.Load(), len(*delays))
	}
}

// TestRetriesDisabled pins MaxRetries < 0: one attempt, no sleeps.
func TestRetriesDisabled(t *testing.T) {
	var calls atomic.Int32
	c, delays := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"saturated"}`, http.StatusTooManyRequests)
	}))
	c.MaxRetries = -1
	if _, err := c.Workloads(context.Background()); err == nil {
		t.Fatal("want an error with retries disabled")
	}
	if calls.Load() != 1 || len(*delays) != 0 {
		t.Errorf("attempts = %d, sleeps = %d; want 1 attempt, 0 sleeps", calls.Load(), len(*delays))
	}
}

// TestPerRequestDeadline pins the per-attempt timeout: a server slower
// than RequestTimeout fails the attempt with a deadline error rather
// than hanging.
func TestPerRequestDeadline(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	c, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	c.RequestTimeout = 20 * time.Millisecond
	c.MaxRetries = -1
	_, err := c.Workloads(context.Background())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline error", err)
	}
}

// TestRetryUnder429Saturation is the end-to-end shedding scenario: the
// daemon sheds with 429 + Retry-After while saturated; the client backs
// off for exactly the advertised delay and succeeds once capacity
// returns (the sleep hook is the moment the saturation lifts).
func TestRetryUnder429Saturation(t *testing.T) {
	saturated := atomic.Bool{}
	saturated.Store(true)
	var calls atomic.Int32
	backend := server.New(server.Config{N: 20000}, nil).Handler()
	c, delays := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if saturated.Load() {
			// What fomodeld's limiter sends when every slot is busy.
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"server saturated"}`, http.StatusTooManyRequests)
			return
		}
		backend.ServeHTTP(w, r)
	}))
	inner := c.sleep
	c.sleep = func(ctx context.Context, d time.Duration) error {
		saturated.Store(false) // capacity returns while the client waits
		return inner(ctx, d)
	}

	rec, err := c.Predict(context.Background(), server.PredictRequest{Bench: "gzip"})
	if err != nil {
		t.Fatalf("Predict under saturation: %v", err)
	}
	if rec.Bench != "gzip" || rec.Estimate.CPI <= 0 {
		t.Errorf("implausible prediction: %+v", rec)
	}
	if calls.Load() != 2 {
		t.Errorf("attempts = %d, want 2 (shed, then served)", calls.Load())
	}
	if len(*delays) != 1 || (*delays)[0] != time.Second {
		t.Errorf("delays = %v, want exactly the advertised 1s", *delays)
	}
}

// TestBatchRoundTrip pins the batch method against the real daemon: item
// bodies decode to predictions and match PredictRaw byte for byte.
func TestBatchRoundTrip(t *testing.T) {
	c := realServer(t, server.Config{})
	ctx := context.Background()
	reqs := []server.PredictRequest{{Bench: "gzip"}, {Bench: "mcf"}}
	items, err := c.Batch(ctx, reqs)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if len(items) != 2 {
		t.Fatalf("items = %d, want 2", len(items))
	}
	for i, item := range items {
		if item.Status != http.StatusOK {
			t.Fatalf("item %d: status %d (%s)", i, item.Status, item.Error)
		}
		raw, err := c.PredictRaw(ctx, reqs[i])
		if err != nil {
			t.Fatalf("PredictRaw %d: %v", i, err)
		}
		if item.Body != string(raw) {
			t.Errorf("item %d body differs from PredictRaw", i)
		}
	}
}

// TestSweepStreamRoundTrip pins streaming consumption against the real
// daemon: every grid cell arrives as a point, the trailer carries the
// sweep-level fields, and both agree with the buffered Sweep result.
func TestSweepStreamRoundTrip(t *testing.T) {
	c := realServer(t, server.Config{})
	ctx := context.Background()
	spec := experiments.SweepSpec{Param: "width", Benches: []string{"gzip"}, Values: []int{2, 4, 6, 8}}

	var points []experiments.SweepPoint
	trailer, err := c.SweepStream(ctx, spec, func(pt experiments.SweepPoint) error {
		points = append(points, pt)
		return nil
	})
	if err != nil {
		t.Fatalf("SweepStream: %v", err)
	}
	buffered, err := c.Sweep(ctx, spec)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(points) != len(buffered.Points) {
		t.Fatalf("streamed %d points, buffered %d", len(points), len(buffered.Points))
	}
	for i := range points {
		if points[i] != buffered.Points[i] {
			t.Errorf("point %d differs: streamed %+v buffered %+v", i, points[i], buffered.Points[i])
		}
	}
	if trailer.Render != buffered.Render || trailer.CSV != buffered.CSV ||
		trailer.MeanAbsErr != buffered.MeanAbsErr || trailer.Title != buffered.Title {
		t.Errorf("trailer differs from buffered sweep:\n%+v\nvs\n%+v", trailer, buffered)
	}
}

// TestSweepStreamServerError pins the mid-protocol error paths: an error
// row becomes an APIError, and a truncated stream (no trailer) is
// reported rather than silently treated as complete.
func TestSweepStreamServerError(t *testing.T) {
	t.Run("error row", func(t *testing.T) {
		c, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			fmt.Fprintln(w, `{"bench":"gzip","value":2,"sim_cpi":1,"model_cpi":1,"err":0}`)
			fmt.Fprintln(w, `{"error":"simulator exploded"}`)
		}))
		_, err := c.SweepStream(context.Background(), experiments.SweepSpec{}, nil)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || !strings.Contains(apiErr.Message, "simulator exploded") {
			t.Fatalf("err = %v, want an APIError carrying the row's message", err)
		}
	})
	t.Run("truncated stream", func(t *testing.T) {
		c, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			fmt.Fprintln(w, `{"bench":"gzip","value":2,"sim_cpi":1,"model_cpi":1,"err":0}`)
		}))
		_, err := c.SweepStream(context.Background(), experiments.SweepSpec{}, nil)
		if err == nil || !strings.Contains(err.Error(), "without a trailer") {
			t.Fatalf("err = %v, want a truncated-stream error", err)
		}
	})
}

// TestDoRawRelaysTerminalResponse pins the proxying contract: DoRaw
// makes one attempt and returns a shedding response itself — status,
// Retry-After, and body intact, with no retry and no sleep even when
// MaxRetries allows them — so a proxy can spill to another replica or
// relay the daemon's authoritative answer instead of waiting it out.
func TestDoRawRelaysTerminalResponse(t *testing.T) {
	var calls atomic.Int32
	c, delays := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"server saturated"}`, http.StatusTooManyRequests)
	}))
	c.MaxRetries = 2

	resp, err := c.DoRaw(context.Background(), http.MethodGet, "/v1/workloads", nil, nil, false)
	if err != nil {
		t.Fatalf("DoRaw: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("terminal status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("terminal Retry-After = %q, want it preserved", got)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "server saturated") {
		t.Errorf("terminal body %q lost the server message", body)
	}
	if calls.Load() != 1 || len(*delays) != 0 {
		t.Errorf("attempts = %d, sleeps = %d; want 1 attempt, 0 sleeps", calls.Load(), len(*delays))
	}
}

// TestDoRawHeadersAndNon200Passthrough pins that extra headers reach the
// wire and that a non-retryable non-200 comes back as a response (for
// relay), not an *APIError.
func TestDoRawHeadersAndNon200Passthrough(t *testing.T) {
	c, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Request-ID", r.Header.Get("X-Request-ID"))
		http.Error(w, `{"error":"unknown profile"}`, http.StatusBadRequest)
	}))
	hdr := http.Header{"X-Request-ID": []string{"abc123"}}
	resp, err := c.DoRaw(context.Background(), http.MethodPost, "/v1/predict", []byte(`{}`), hdr, false)
	if err != nil {
		t.Fatalf("DoRaw: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want the 400 relayed", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "abc123" {
		t.Errorf("echoed request id = %q, want header forwarded", got)
	}
}

// TestDoRawNoTransportRetry pins the failover contract: a transport
// error (dead replica) surfaces immediately with no sleeps, so the
// router can move to the ring successor at once.
func TestDoRawNoTransportRetry(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // nothing listens here anymore
	c := New(srv.URL)
	delays := []time.Duration{}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		delays = append(delays, d)
		return nil
	}
	start := time.Now()
	_, err := c.DoRaw(context.Background(), http.MethodGet, "/healthz", nil, nil, false)
	if err == nil {
		t.Fatal("DoRaw against a dead server should fail")
	}
	if len(delays) != 0 {
		t.Errorf("transport error slept %v; want immediate failure for failover", delays)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("failure took %v; want immediate", elapsed)
	}
}

// TestStreamRetryNoDuplicateRows pins the retry × streaming
// interaction: a replica that sheds the streaming request with 503
// fails over (via the retry loop) to a successful attempt, and every
// NDJSON row is delivered exactly once — the retry happens before any
// row leaves the server, so a consumer can never observe duplicated
// cells.
func TestStreamRetryNoDuplicateRows(t *testing.T) {
	var calls atomic.Int32
	c, delays := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"bench":"gzip","value":2,"sim_cpi":1,"model_cpi":1,"err":0}`)
		fmt.Fprintln(w, `{"bench":"gzip","value":4,"sim_cpi":1,"model_cpi":1,"err":0}`)
		fmt.Fprintln(w, `{"title":"t","param":"width","mean_abs_err":0,"render":"r","csv":"c"}`)
	}))

	seen := map[int]int{}
	trailer, err := c.SweepStream(context.Background(), experiments.SweepSpec{}, func(pt experiments.SweepPoint) error {
		seen[pt.Value]++
		return nil
	})
	if err != nil {
		t.Fatalf("SweepStream across a 503: %v", err)
	}
	if trailer == nil || trailer.Render != "r" {
		t.Fatalf("trailer = %+v, want the second attempt's trailer", trailer)
	}
	if calls.Load() != 2 {
		t.Errorf("attempts = %d, want 2 (shed, then streamed)", calls.Load())
	}
	if len(*delays) != 1 || (*delays)[0] != time.Second {
		t.Errorf("delays = %v, want exactly the advertised 1s", *delays)
	}
	for v, n := range seen {
		if n != 1 {
			t.Errorf("row value %d delivered %d times; rows must never duplicate across the retry", v, n)
		}
	}
	if len(seen) != 2 {
		t.Errorf("saw %d distinct rows, want 2", len(seen))
	}
}

func TestOptimizeStreamRoundTrip(t *testing.T) {
	c := realServer(t, server.Config{})
	ctx := context.Background()
	spec := optimize.Spec{
		Workloads: []optimize.WorkloadWeight{{Bench: "gzip"}},
		Bounds:    map[string]optimize.Bound{"width": {Min: 1, Max: 4}},
		Budget:    6,
	}

	var points []optimize.Point
	trailer, err := c.OptimizeStream(ctx, spec, func(pt optimize.Point) error {
		points = append(points, pt)
		return nil
	})
	if err != nil {
		t.Fatalf("OptimizeStream: %v", err)
	}
	buffered, err := c.Optimize(ctx, spec)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if len(points) == 0 || len(points) != len(buffered.Points) {
		t.Fatalf("streamed %d points, buffered %d", len(points), len(buffered.Points))
	}
	for i := range points {
		if fmt.Sprint(points[i]) != fmt.Sprint(buffered.Points[i]) {
			t.Errorf("point %d differs: streamed %+v buffered %+v", i, points[i], buffered.Points[i])
		}
	}
	if trailer.Render != buffered.Render || trailer.CSV != buffered.CSV ||
		trailer.Evaluations != buffered.Evaluations || trailer.Converged != buffered.Converged {
		t.Errorf("trailer differs from buffered search:\n%+v\nvs\n%+v", trailer, buffered)
	}
	if len(trailer.Frontier) != len(buffered.Frontier) {
		t.Errorf("trailer frontier %d points, buffered %d", len(trailer.Frontier), len(buffered.Frontier))
	}
}

// TestOptimizeStreamServerError pins the mid-protocol error paths for
// the optimize stream, mirroring the sweep-stream coverage.
func TestOptimizeStreamServerError(t *testing.T) {
	t.Run("error row", func(t *testing.T) {
		c, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			fmt.Fprintln(w, `{"eval":1,"config":{"width":4,"depth":5,"window":48,"rob":128,"clusters":1,"fetch_buffer":0},"cpi":1,"objectives":[1]}`)
			fmt.Fprintln(w, `{"error":"search exploded"}`)
		}))
		_, err := c.OptimizeStream(context.Background(), optimize.Spec{}, nil)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || !strings.Contains(apiErr.Message, "search exploded") {
			t.Fatalf("err = %v, want an APIError carrying the row's message", err)
		}
	})
	t.Run("truncated stream", func(t *testing.T) {
		c, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			fmt.Fprintln(w, `{"eval":1,"config":{"width":4,"depth":5,"window":48,"rob":128,"clusters":1,"fetch_buffer":0},"cpi":1,"objectives":[1]}`)
		}))
		_, err := c.OptimizeStream(context.Background(), optimize.Spec{}, nil)
		if err == nil || !strings.Contains(err.Error(), "without a trailer") {
			t.Fatalf("err = %v, want a truncated-stream error", err)
		}
	})
}

// Package client is the Go client for fomodeld, the model-serving
// daemon. It is the consumer half of the serving stack: per-request
// deadlines, bounded exponential backoff with jitter on 429/503 that
// honors the server's Retry-After header, one-round-trip batch
// prediction, and streaming (NDJSON) sweep consumption. The request and
// response types are internal/server's own, so a client binary and the
// daemon can never disagree about the wire shape.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"fomodel/internal/experiments"
	"fomodel/internal/httpfront"
	"fomodel/internal/optimize"
	"fomodel/internal/server"
	"fomodel/internal/workload"
)

// Default knobs; see the corresponding Client fields.
const (
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxRetries     = 4
	DefaultBaseBackoff    = 200 * time.Millisecond
	DefaultMaxBackoff     = 5 * time.Second
)

// Client talks to one fomodeld daemon. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8750".
	BaseURL string
	// HTTPClient is the transport; nil means http.DefaultClient.
	HTTPClient *http.Client
	// RequestTimeout bounds each non-streaming attempt (not the whole
	// retry loop); 0 means DefaultRequestTimeout, negative disables it.
	// Streaming requests are bounded only by the caller's context.
	RequestTimeout time.Duration
	// MaxRetries is how many times a 429/503 response is retried after
	// the first attempt; 0 means DefaultMaxRetries, negative disables
	// retries.
	MaxRetries int
	// Tenant, when non-empty, is sent as the X-Tenant header on every
	// request; workload registrations are owned per tenant.
	Tenant string
	// BaseBackoff and MaxBackoff bound the exponential retry schedule:
	// the k-th retry waits a jittered delay drawn from
	// [backoff/2, backoff] where backoff doubles from BaseBackoff up to
	// MaxBackoff — unless the server sent Retry-After, which is honored
	// exactly (the server knows its own service time better than the
	// client's guess). Zero values select the defaults.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// sleep parks between retries; tests replace it to observe the
	// schedule without waiting it out. nil means a context-aware sleep.
	sleep func(ctx context.Context, d time.Duration) error
	// jitter maps a backoff ceiling to the actual delay; nil draws
	// uniformly from [d/2, d].
	jitter func(d time.Duration) time.Duration
}

// New returns a client for the daemon at baseURL with default timeout,
// retry, and backoff settings; adjust the exported fields before first
// use to tune them.
func New(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

// NewPooled returns a client with its own dedicated connection pool
// instead of http.DefaultClient's shared one. The fomodelproxy router
// keeps one pooled client per replica, so each replica's keep-alive
// connections are reused across requests and one slow replica cannot
// exhaust the idle-connection budget of the others.
func NewPooled(baseURL string, maxIdleConns int) *Client {
	if maxIdleConns <= 0 {
		maxIdleConns = 32
	}
	tr := &http.Transport{
		MaxIdleConns:        maxIdleConns,
		MaxIdleConnsPerHost: maxIdleConns,
		IdleConnTimeout:     90 * time.Second,
	}
	return &Client{BaseURL: baseURL, HTTPClient: &http.Client{Transport: tr}}
}

// APIError is a non-200 daemon response, carrying the HTTP status and
// the structured error message.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("fomodeld: %s (HTTP %d)", e.Message, e.Status)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) requestTimeout() time.Duration {
	switch {
	case c.RequestTimeout < 0:
		return 0
	case c.RequestTimeout == 0:
		return DefaultRequestTimeout
	}
	return c.RequestTimeout
}

func (c *Client) maxRetries() int {
	switch {
	case c.MaxRetries < 0:
		return 0
	case c.MaxRetries == 0:
		return DefaultMaxRetries
	}
	return c.MaxRetries
}

func (c *Client) baseBackoff() time.Duration {
	if c.BaseBackoff <= 0 {
		return DefaultBaseBackoff
	}
	return c.BaseBackoff
}

func (c *Client) maxBackoff() time.Duration {
	if c.MaxBackoff <= 0 {
		return DefaultMaxBackoff
	}
	return c.MaxBackoff
}

func (c *Client) sleepFn(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (c *Client) jitterFn(d time.Duration) time.Duration {
	if c.jitter != nil {
		return c.jitter(d)
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// retryable reports whether the status signals transient overload or
// unavailability worth retrying.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// retryAfter parses the response's Retry-After header as a delay;
// 0 means absent or unparseable. RFC 7231 allows both forms: delta
// seconds and an HTTP-date. The date form is interpreted relative to
// the response's own Date header (the server's clock, which produced
// both) falling back to local time, and — unlike an exact delta, which
// is honored as sent — is clamped to MaxBackoff, since clock skew can
// inflate it arbitrarily.
func (c *Client) retryAfter(resp *http.Response) time.Duration {
	h := resp.Header.Get("Retry-After")
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	at, err := http.ParseTime(h)
	if err != nil {
		return 0
	}
	now := time.Now()
	if d, err := http.ParseTime(resp.Header.Get("Date")); err == nil {
		now = d
	}
	delay := at.Sub(now)
	if delay < 0 {
		return 0
	}
	if max := c.maxBackoff(); delay > max {
		delay = max
	}
	return delay
}

// apiError drains the response and converts its structured error body
// into an *APIError.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	var e httpfront.ErrorBody
	if json.Unmarshal(body, &e) != nil || e.Error == "" {
		e.Error = http.StatusText(resp.StatusCode)
	}
	return &APIError{Status: resp.StatusCode, Message: e.Error}
}

// do runs one request through the retry loop and returns a 200
// response whose body the caller must close. stream requests skip the
// per-attempt timeout (rows may flow for a long time); buffered
// attempts each carry RequestTimeout. Transport errors and 429/503
// responses are retried per the schedule; non-200 terminal responses
// become *APIError.
func (c *Client) do(ctx context.Context, method, path string, body []byte, stream bool) (*http.Response, error) {
	backoff := c.baseBackoff()
	retries := c.maxRetries()
	for attempt := 0; ; attempt++ {
		resp, err := c.DoRaw(ctx, method, path, body, nil, stream)
		var delay time.Duration
		switch {
		case err != nil:
			if attempt >= retries {
				return nil, err
			}
		case !retryable(resp.StatusCode) || attempt >= retries:
			if resp.StatusCode != http.StatusOK {
				return nil, apiError(resp) // drains and closes the body
			}
			return resp, nil
		default:
			// Retryable status with attempts remaining: honor
			// Retry-After and release this attempt's resources.
			delay = c.retryAfter(resp)
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
		}
		if delay == 0 {
			delay = c.jitterFn(backoff)
		}
		if err := c.sleepFn(ctx, delay); err != nil {
			return nil, err
		}
		backoff = c.nextBackoff(backoff)
	}
}

// DoRaw makes exactly one attempt and returns its response — whatever
// its status — with the body intact for the caller to relay. It is the
// proxying entry point: the fomodelproxy router forwards the status
// line, headers, and body verbatim, which is what keeps proxied
// responses byte-equal to a daemon's own. Nothing is retried: a
// transport error comes back at once, so a dead replica fails over to
// its ring successor instead of being backed off against, and a 429 or
// 503 comes back with its Retry-After for the router to spill or relay.
// A buffered attempt carries RequestTimeout, released when the caller
// closes the response body; the retry loop in do is built on it.
//
// hdr entries (may be nil) are added to the request headers — the router
// uses this to forward X-Request-ID and X-Tenant.
func (c *Client) DoRaw(ctx context.Context, method, path string, body []byte, hdr http.Header, stream bool) (*http.Response, error) {
	cancel := context.CancelFunc(func() {})
	if t := c.requestTimeout(); t > 0 && !stream {
		ctx, cancel = context.WithTimeout(ctx, t)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		cancel()
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if stream {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	if c.Tenant != "" {
		req.Header.Set("X-Tenant", c.Tenant)
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	resp.Body = &cancelingBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// nextBackoff doubles the backoff up to the configured ceiling.
func (c *Client) nextBackoff(backoff time.Duration) time.Duration {
	backoff *= 2
	if max := c.maxBackoff(); backoff > max {
		backoff = max
	}
	return backoff
}

// cancelingBody ties a per-attempt context to the response body's
// lifetime so the deadline timer is released when the caller is done.
type cancelingBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelingBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// postJSON marshals req, posts it, and reads the whole 200 body.
func (c *Client) postJSON(ctx context.Context, path string, req any) ([]byte, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, path, payload, false)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// PredictRaw returns the exact /v1/predict response bytes — the same
// bytes `fomodel -json` prints for the equivalent invocation.
func (c *Client) PredictRaw(ctx context.Context, req server.PredictRequest) ([]byte, error) {
	return c.postJSON(ctx, "/v1/predict", req)
}

// Predict returns one workload's decoded CPI prediction.
func (c *Client) Predict(ctx context.Context, req server.PredictRequest) (server.PredictRecord, error) {
	var rec server.PredictRecord
	body, err := c.PredictRaw(ctx, req)
	if err != nil {
		return rec, err
	}
	err = json.Unmarshal(body, &rec)
	return rec, err
}

// Batch evaluates many predict requests in one round trip. The returned
// items are in request order; each carries its own status, cache state,
// and either the exact per-item /v1/predict body or an error message —
// a failing item does not fail the batch.
func (c *Client) Batch(ctx context.Context, items []server.PredictRequest) ([]server.BatchItem, error) {
	body, err := c.postJSON(ctx, "/v1/batch", server.BatchRequest{Items: items})
	if err != nil {
		return nil, err
	}
	var resp server.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return resp.Items, nil
}

// Sweep runs a buffered design-space sweep.
func (c *Client) Sweep(ctx context.Context, spec experiments.SweepSpec) (*server.SweepResponse, error) {
	body, err := c.postJSON(ctx, "/v1/sweep", spec)
	if err != nil {
		return nil, err
	}
	var resp server.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SweepStream runs a streaming sweep: onPoint is called for each grid
// cell's row as it arrives, and the sweep-level trailer is returned
// once the stream ends. An onPoint error abandons the stream (closing
// the connection cancels the server's remaining cells), as does ctx.
func (c *Client) SweepStream(ctx context.Context, spec experiments.SweepSpec, onPoint func(experiments.SweepPoint) error) (*server.SweepTrailer, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/sweep", payload, true)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Bench  *string `json:"bench"`
			Render *string `json:"render"`
			Error  *string `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("client: malformed stream row %q: %v", line, err)
		}
		switch {
		case probe.Error != nil:
			return nil, &APIError{Status: http.StatusInternalServerError, Message: *probe.Error}
		case probe.Render != nil:
			var trailer server.SweepTrailer
			if err := json.Unmarshal(line, &trailer); err != nil {
				return nil, err
			}
			return &trailer, nil
		case probe.Bench != nil:
			var pt experiments.SweepPoint
			if err := json.Unmarshal(line, &pt); err != nil {
				return nil, err
			}
			if onPoint != nil {
				if err := onPoint(pt); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("client: unrecognized stream row %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("client: stream ended without a trailer row")
}

// OptimizeRaw returns the exact buffered /v1/optimize response bytes —
// the same bytes `fomodel -optimize -json` prints for the same spec.
func (c *Client) OptimizeRaw(ctx context.Context, spec optimize.Spec) ([]byte, error) {
	return c.postJSON(ctx, "/v1/optimize", spec)
}

// Optimize runs a buffered design-space search.
func (c *Client) Optimize(ctx context.Context, spec optimize.Spec) (*server.OptimizeResponse, error) {
	body, err := c.OptimizeRaw(ctx, spec)
	if err != nil {
		return nil, err
	}
	var resp server.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// OptimizeStream runs a streaming design-space search: onPoint is called
// for each accepted incumbent or frontier point as the search discovers
// it, and the search-level trailer is returned once the stream ends. An
// onPoint error abandons the stream (closing the connection cancels the
// server's remaining evaluations), as does ctx.
func (c *Client) OptimizeStream(ctx context.Context, spec optimize.Spec, onPoint func(optimize.Point) error) (*server.OptimizeTrailer, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/optimize", payload, true)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Eval   *int    `json:"eval"`
			Render *string `json:"render"`
			Error  *string `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("client: malformed stream row %q: %v", line, err)
		}
		switch {
		case probe.Error != nil:
			return nil, &APIError{Status: http.StatusInternalServerError, Message: *probe.Error}
		case probe.Render != nil:
			var trailer server.OptimizeTrailer
			if err := json.Unmarshal(line, &trailer); err != nil {
				return nil, err
			}
			return &trailer, nil
		case probe.Eval != nil:
			var pt optimize.Point
			if err := json.Unmarshal(line, &pt); err != nil {
				return nil, err
			}
			if onPoint != nil {
				if err := onPoint(pt); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("client: unrecognized stream row %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("client: stream ended without a trailer row")
}

// Workloads lists the daemon's built-in workloads and their model-facing
// statistics.
func (c *Client) Workloads(ctx context.Context) (*server.WorkloadsResponse, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/workloads", nil, false)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var w server.WorkloadsResponse
	if err := json.NewDecoder(resp.Body).Decode(&w); err != nil {
		return nil, err
	}
	return &w, nil
}

// workloadPath builds the per-name workload route.
func workloadPath(name string) string {
	return "/v1/workloads/" + url.PathEscape(name)
}

// RegisterWorkload registers (or replaces) a custom workload profile
// under name; the registered name is then accepted anywhere a built-in
// benchmark name is. Ownership follows the client's Tenant.
func (c *Client) RegisterWorkload(ctx context.Context, name string, prof workload.Profile) (*server.WorkloadRegistration, error) {
	body, err := c.postJSON(ctx, workloadPath(name), prof)
	if err != nil {
		return nil, err
	}
	var reg server.WorkloadRegistration
	if err := json.Unmarshal(body, &reg); err != nil {
		return nil, err
	}
	return &reg, nil
}

// Workload reads one registered workload back.
func (c *Client) Workload(ctx context.Context, name string) (*server.WorkloadRegistration, error) {
	resp, err := c.do(ctx, http.MethodGet, workloadPath(name), nil, false)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var reg server.WorkloadRegistration
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		return nil, err
	}
	return &reg, nil
}

// DeleteWorkload removes one of the tenant's registered workloads.
func (c *Client) DeleteWorkload(ctx context.Context, name string) error {
	resp, err := c.do(ctx, http.MethodDelete, workloadPath(name), nil, false)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

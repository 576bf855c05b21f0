package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fomodel/internal/experiments"
	"fomodel/internal/metrics/metricstest"
	"fomodel/internal/optimize"
	"fomodel/internal/reqkey"
	"fomodel/internal/server"
	"fomodel/internal/workload"
)

// testN keeps per-request compute cheap: a 2000-instruction trace
// generates and analyzes in well under a millisecond.
const testN = 2000

func testDefaults() reqkey.Defaults { return reqkey.Defaults{N: testN, Seed: 1} }

// newDaemon boots a real fomodeld handler chain on a test listener.
func newDaemon(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(server.Config{N: testN, Seed: 1}, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// newProxy builds a router over the given replica URLs and serves it.
func newProxy(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.Defaults == (reqkey.Defaults{}) {
		cfg.Defaults = testDefaults()
	}
	rt, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

func post(t *testing.T, base, path, body string, hdr http.Header) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func get(t *testing.T, base, path string) *http.Response {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRingDistributionAndStability(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := newRing(urls, 64)

	owned := make(map[int]int)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%d", i)
		seq := r.sequence(key)
		if len(seq) != 3 {
			t.Fatalf("sequence(%q) = %v, want all 3 replicas", key, seq)
		}
		seen := map[int]bool{}
		for _, idx := range seq {
			if seen[idx] {
				t.Fatalf("sequence(%q) repeats replica %d", key, idx)
			}
			seen[idx] = true
		}
		owned[seq[0]]++
		// Determinism: the same key maps identically on a fresh ring.
		again := newRing(urls, 64).sequence(key)
		for j := range seq {
			if seq[j] != again[j] {
				t.Fatalf("sequence(%q) not deterministic: %v vs %v", key, seq, again)
			}
		}
	}
	for i := 0; i < 3; i++ {
		if owned[i] == 0 {
			t.Fatalf("replica %d owns no keys out of 300: %v", i, owned)
		}
	}

	// Consistency: removing replica b moves only b's keys; keys owned by
	// a or c keep their owner.
	sub := newRing([]string{urls[0], urls[2]}, 64) // indices: 0→a, 1→c
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := r.sequence(key)[0]
		after := sub.sequence(key)[0]
		if before == 0 && after != 0 {
			t.Fatalf("key %q moved off replica a when b was removed", key)
		}
		if before == 2 && after != 1 {
			t.Fatalf("key %q moved off replica c when b was removed", key)
		}
	}
}

// TestProxyByteEquality pins the tentpole contract: for every endpoint,
// the bytes a client gets through the sharded proxy are exactly the
// bytes a single daemon would have produced.
func TestProxyByteEquality(t *testing.T) {
	_, ref := newDaemon(t)
	_, repA := newDaemon(t)
	_, repB := newDaemon(t)
	rt, proxy := newProxy(t, Config{
		Replicas: []string{repA.URL, repB.URL},
	})

	// Predict: single-shot, repeated for the cache-hit path.
	predictBody := `{"bench": "gzip", "machine": {"rob": 64}}`
	for pass, wantCache := range []string{"miss", "hit"} {
		want := readAll(t, post(t, ref.URL, "/v1/predict", predictBody, nil))
		resp := post(t, proxy.URL, "/v1/predict", predictBody, nil)
		got := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pass %d: proxy predict status %d: %s", pass, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pass %d: proxy predict body differs from daemon's:\n got %q\nwant %q", pass, got, want)
		}
		if c := resp.Header.Get("X-Cache"); c != wantCache {
			t.Fatalf("pass %d: X-Cache = %q, want %q", pass, c, wantCache)
		}
		if resp.Header.Get("X-Request-ID") == "" {
			t.Fatalf("pass %d: proxy response is missing X-Request-ID", pass)
		}
	}

	// Errors: the daemon's message and status relay verbatim (the body
	// additionally carries the proxy's request ID).
	badBody := `{"bench": "no-such-bench"}`
	wantErr := readAll(t, post(t, ref.URL, "/v1/predict", badBody, nil))
	resp := post(t, proxy.URL, "/v1/predict", badBody, nil)
	gotErr := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad bench: proxy status %d, want 400", resp.StatusCode)
	}
	var wantE, gotE struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(wantErr, &wantE); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gotErr, &gotE); err != nil {
		t.Fatal(err)
	}
	if gotE.Error != wantE.Error {
		t.Fatalf("proxied error %q, want %q", gotE.Error, wantE.Error)
	}
	if gotE.RequestID == "" {
		t.Fatalf("proxied error body lacks the request ID: %s", gotErr)
	}

	// Batch: every workload at two ROB sizes — enough keys that the batch
	// splits across both shards in virtually every ring layout.
	var items []server.PredictRequest
	for _, rob := range []int{64, 128} {
		for _, name := range workload.Names() {
			items = append(items, server.PredictRequest{Bench: name, Machine: server.MachineSpec{ROB: rob}})
		}
	}
	owners := map[int]bool{}
	for _, item := range items {
		owners[rt.ring.owner(rt.itemKey(item))] = true
	}
	batchBody, err := json.Marshal(server.BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	wantBatch := readAll(t, post(t, ref.URL, "/v1/batch", string(batchBody), nil))
	resp = post(t, proxy.URL, "/v1/batch", string(batchBody), nil)
	gotBatch := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxy batch status %d: %s", resp.StatusCode, gotBatch)
	}
	if !bytes.Equal(gotBatch, wantBatch) {
		t.Fatalf("proxy batch body differs from daemon's (%d vs %d bytes, split across %d shards)",
			len(gotBatch), len(wantBatch), len(owners))
	}
	if len(owners) < 2 {
		t.Logf("note: all %d batch keys landed on one shard in this ring layout", len(items))
	}

	// Buffered sweep.
	sweepBody := `{"param": "rob", "benches": ["gzip", "gcc"], "values": [64, 128]}`
	wantSweep := readAll(t, post(t, ref.URL, "/v1/sweep", sweepBody, nil))
	resp = post(t, proxy.URL, "/v1/sweep", sweepBody, nil)
	gotSweep := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxy sweep status %d: %s", resp.StatusCode, gotSweep)
	}
	if !bytes.Equal(gotSweep, wantSweep) {
		t.Fatalf("proxy sweep body differs from daemon's")
	}

	// Streamed (NDJSON) sweep: full stream passthrough, row for row.
	ndjson := http.Header{"Accept": []string{"application/x-ndjson"}}
	wantStream := readAll(t, post(t, ref.URL, "/v1/sweep", sweepBody, ndjson))
	resp = post(t, proxy.URL, "/v1/sweep", sweepBody, ndjson)
	gotStream := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxy stream status %d: %s", resp.StatusCode, gotStream)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("proxy stream Content-Type = %q", ct)
	}
	if !bytes.Equal(gotStream, wantStream) {
		t.Fatalf("proxy NDJSON stream differs from daemon's:\n got %q\nwant %q", gotStream, wantStream)
	}

	// Workloads listing.
	wantWl := readAll(t, get(t, ref.URL, "/v1/workloads"))
	resp = get(t, proxy.URL, "/v1/workloads")
	gotWl := readAll(t, resp)
	if !bytes.Equal(gotWl, wantWl) {
		t.Fatalf("proxy workloads body differs from daemon's")
	}
}

// TestShardStability pins the cache-aware property itself: each key has
// one home replica, repeats land there every time, and the keyspace
// spreads per the ring's own assignment. The requests go one at a time,
// so no replica is ever over the bounded-load cap and none is diverted.
func TestShardStability(t *testing.T) {
	_, repA := newDaemon(t)
	_, repB := newDaemon(t)
	rt, proxy := newProxy(t, Config{Replicas: []string{repA.URL, repB.URL}})

	bodies := make([]string, 0, 16)
	for _, rob := range []int{48, 96} {
		for _, name := range workload.Names() {
			bodies = append(bodies, fmt.Sprintf(`{"bench": %q, "machine": {"rob": %d}}`, name, rob))
		}
	}
	wantPerReplica := make([]int64, 2)
	const repeats = 3
	for _, body := range bodies {
		owner := rt.ring.owner(routeKey(rt, "predict", []byte(body), server.PredictCacheKey))
		wantPerReplica[owner] += repeats
	}
	for i := 0; i < repeats; i++ {
		for _, body := range bodies {
			resp := post(t, proxy.URL, "/v1/predict", body, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("predict status %d: %s", resp.StatusCode, readAll(t, resp))
			}
			readAll(t, resp)
		}
	}
	for i, rep := range rt.reps {
		if got := rep.requests.Load(); got != wantPerReplica[i] {
			t.Fatalf("replica %d served %d requests, want %d (routing not key-stable)",
				i, got, wantPerReplica[i])
		}
	}
	if wantPerReplica[0] == 0 || wantPerReplica[1] == 0 {
		t.Logf("note: degenerate ring layout, one replica owns all %d keys", len(bodies))
	}
	// After the first pass every repeat is a hit on its home replica.
	var hits int64
	for _, rep := range rt.reps {
		hits += rep.hits.Load()
	}
	if want := int64(len(bodies) * (repeats - 1)); hits != want {
		t.Fatalf("observed %d relayed cache hits, want %d", hits, want)
	}
}

// fakeReplicas builds n configurable bare upstreams (not real daemons)
// plus a router over them; behavior[i] may be swapped before requests.
func fakeReplicas(t *testing.T, n int, cfg Config) ([]*httptest.Server, []*http.HandlerFunc, *Router) {
	t.Helper()
	handlers := make([]*http.HandlerFunc, n)
	servers := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
		})
		handlers[i] = &h
		i := i
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handlers[i])(w, r)
		}))
		t.Cleanup(servers[i].Close)
		urls[i] = servers[i].URL
	}
	cfg.Replicas = urls
	if cfg.Defaults == (reqkey.Defaults{}) {
		cfg.Defaults = testDefaults()
	}
	rt, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return servers, handlers, rt
}

// TestEjectionFailsOverStalledOwner: the key's owner hangs — predict
// and /readyz alike — so the next probe times out and ejects it; the
// ejection cancels the attempt still waiting for headers, and the ring
// successor serves the request.
func TestEjectionFailsOverStalledOwner(t *testing.T) {
	// The upstream timeout only bounds a regression: the ejection must
	// fail the attempt over long before it.
	_, handlers, rt := fakeReplicas(t, 2, Config{ProbeTimeout: 50 * time.Millisecond, UpstreamTimeout: 10 * time.Second})
	body := []byte(`{"bench": "gzip"}`)
	key := routeKey(rt, "predict", body, server.PredictCacheKey)
	owner := rt.ring.owner(key)

	arrived := make(chan struct{}, 1)
	canceled := make(chan struct{}, 1)
	*handlers[owner] = func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's background connection-close
		// watcher is armed; a canceled client then cancels r.Context().
		io.Copy(io.Discard, r.Body)
		if r.URL.Path == "/v1/predict" {
			arrived <- struct{}{}
		}
		<-r.Context().Done()
		if r.URL.Path == "/v1/predict" {
			canceled <- struct{}{}
		}
	}
	*handlers[1-owner] = func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"served": true}`))
	}

	type result struct {
		body []byte
		rep  *replica
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, rep, err := rt.forward(context.Background(), http.MethodPost, "/v1/predict", body, nil, false, key)
		if err != nil {
			done <- result{err: err}
			return
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- result{body: b, rep: rep, err: err}
	}()
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the request never reached the owner")
	}
	rt.ProbeOnce(context.Background())
	if rt.reps[owner].healthy.Load() {
		t.Fatal("a probe that timed out left the hung owner in rotation")
	}
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if string(res.body) != `{"served": true}` || res.rep != rt.reps[1-owner] {
			t.Fatalf("body %q from %s, want the successor's answer", res.body, res.rep.url)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the ejection did not fail the stalled attempt over")
	}
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("the stalled attempt's context was never canceled")
	}
}

// TestHungReplicaFailsOver runs the background probe loop over a hung
// replica, a listener that accepts connections and never reads or
// writes, and a real daemon. A predict the hung replica owns must be
// answered by the daemon within ProbeInterval+ProbeTimeout plus a
// margin, byte-identical to the daemon's direct answer, and /metrics
// must count the ejection.
func TestHungReplicaFailsOver(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan []net.Conn, 1)
	go func() {
		var conns []net.Conn
		for {
			c, err := ln.Accept()
			if err != nil {
				accepted <- conns
				return
			}
			conns = append(conns, c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		for _, c := range <-accepted {
			c.Close()
		}
	})
	_, daemon := newDaemon(t)

	// The upstream timeout only bounds a regression: the ejection must
	// fail the attempt over long before it.
	const interval, timeout = 100 * time.Millisecond, 100 * time.Millisecond
	hungURL := "http://" + ln.Addr().String()
	rt, proxy := newProxy(t, Config{
		Replicas:        []string{hungURL, daemon.URL},
		ProbeInterval:   interval,
		ProbeTimeout:    timeout,
		UpstreamTimeout: 30 * time.Second,
	})
	var body string
	for seed := 1; seed <= 64 && body == ""; seed++ {
		b := fmt.Sprintf(`{"bench": "gzip", "seed": %d}`, seed)
		if rt.ring.owner(routeKey(rt, "predict", []byte(b), server.PredictCacheKey)) == 0 {
			body = b
		}
	}
	if body == "" {
		t.Fatal("the hung replica owns none of 64 predict keys")
	}
	want := readAll(t, post(t, daemon.URL, "/v1/predict", body, nil))

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		cancel()
		rt.Wait()
	})
	rt.Start(ctx)
	start := time.Now()
	resp := post(t, proxy.URL, "/v1/predict", body, nil)
	got := readAll(t, resp)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("status %d, relayed body differs from the daemon's direct answer:\n got  %s\n want %s",
			resp.StatusCode, got, want)
	}
	if deadline := interval + timeout + 2*time.Second; elapsed > deadline {
		t.Errorf("answered after %v, want within %v", elapsed, deadline)
	}
	metricsBody := string(readAll(t, get(t, proxy.URL, "/metrics")))
	metricstest.Check(t, metricsBody)
	var ejections int
	prefix := fmt.Sprintf("fomodelproxy_replica_ejections_total{replica=%q} ", hungURL)
	for _, line := range strings.Split(metricsBody, "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			fmt.Sscan(v, &ejections)
		}
	}
	if ejections < 1 {
		t.Errorf("/metrics counts %d ejections of the hung replica, want at least 1", ejections)
	}
}

// shed answers 429 with the given Retry-After and a JSON error body.
func shed(retryAfter, msg string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", retryAfter)
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintf(w, `{"error": %q}`, msg)
	}
}

// TestSheddingOwnerSpillsToSuccessor: an owner shedding with a long
// Retry-After is not waited out; the successor answers at once.
func TestSheddingOwnerSpillsToSuccessor(t *testing.T) {
	_, handlers, rt := fakeReplicas(t, 2, Config{})
	body := []byte(`{"bench": "gzip"}`)
	key := routeKey(rt, "predict", body, server.PredictCacheKey)
	owner := rt.ring.owner(key)
	*handlers[owner] = shed("30", "saturated")
	*handlers[1-owner] = func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"served": true}`))
	}

	begin := time.Now()
	resp, rep, err := rt.forward(context.Background(), http.MethodPost, "/v1/predict", body, nil, false, key)
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, resp)
	if elapsed := time.Since(begin); elapsed > 500*time.Millisecond {
		t.Fatalf("request took %v; the owner's Retry-After was waited out", elapsed)
	}
	if resp.StatusCode != http.StatusOK || string(got) != `{"served": true}` || rep != rt.reps[1-owner] {
		t.Fatalf("status %d body %q from %s, want the successor's 200", resp.StatusCode, got, rep.url)
	}
	if n := rt.reps[owner].requests.Load(); n != 1 {
		t.Fatalf("owner saw %d attempts, want 1 (no proxy-side retry)", n)
	}
	if n := rt.upstream.Snapshot().Count; n != 1 {
		t.Fatalf("upstream histogram has %d observations, want 1 per forward", n)
	}
}

// TestAllCandidatesShedRelaysLast429: when every candidate sheds, the
// client gets the last one's 429 verbatim, Retry-After included.
func TestAllCandidatesShedRelaysLast429(t *testing.T) {
	_, handlers, rt := fakeReplicas(t, 2, Config{})
	proxy := httptest.NewServer(rt.Handler())
	t.Cleanup(proxy.Close)
	body := `{"bench": "gzip"}`
	owner := rt.ring.owner(routeKey(rt, "predict", []byte(body), server.PredictCacheKey))
	*handlers[owner] = shed("30", "owner saturated")
	*handlers[1-owner] = shed("7", "successor saturated")

	resp := post(t, proxy.URL, "/v1/predict", body, nil)
	got := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, got)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want the last candidate's 7", ra)
	}
	if string(got) != `{"error": "successor saturated"}` {
		t.Fatalf("body %q, want the last candidate's", got)
	}
	for i, rep := range rt.reps {
		if n := rep.requests.Load(); n != 1 {
			t.Fatalf("replica %d saw %d attempts, want 1", i, n)
		}
	}
}

// TestShedThenFailedSuccessorRelaysShed: the owner sheds and the
// successor is unreachable, so the client gets the owner's 429 and its
// Retry-After — a retryable answer — not the proxy's 502.
func TestShedThenFailedSuccessorRelaysShed(t *testing.T) {
	servers, handlers, rt := fakeReplicas(t, 2, Config{})
	proxy := httptest.NewServer(rt.Handler())
	t.Cleanup(proxy.Close)
	body := `{"bench": "gzip"}`
	owner := rt.ring.owner(routeKey(rt, "predict", []byte(body), server.PredictCacheKey))
	*handlers[owner] = shed("30", "owner saturated")
	servers[1-owner].Close()

	resp := post(t, proxy.URL, "/v1/predict", body, nil)
	got := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want the owner's 429: %s", resp.StatusCode, got)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "30" {
		t.Fatalf("Retry-After = %q, want the owner's 30", ra)
	}
	if string(got) != `{"error": "owner saturated"}` {
		t.Fatalf("body %q, want the owner's", got)
	}
	if n := rt.reps[1-owner].failures.Load(); n != 1 {
		t.Fatalf("successor recorded %d failures, want 1 (it was tried)", n)
	}
}

// TestEjectionDoesNotCutStreamedRelay: once a streamed answer's headers
// have arrived, ejecting its replica leaves the relay running to the end.
func TestEjectionDoesNotCutStreamedRelay(t *testing.T) {
	_, handlers, rt := fakeReplicas(t, 2, Config{})
	proxy := httptest.NewServer(rt.Handler())
	t.Cleanup(proxy.Close)
	body := `{"param": "rob", "benches": ["gzip"], "values": [64, 128]}`
	owner := rt.ring.owner(routeKey(rt, "sweep", []byte(body), server.SweepCacheKey))

	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	*handlers[owner] = func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"row": 1}`)
		w.(http.Flusher).Flush()
		<-release
		fmt.Fprintln(w, `{"row": 2}`)
	}

	resp := post(t, proxy.URL, "/v1/sweep", body, http.Header{"Accept": []string{"application/x-ndjson"}})
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	first, err := rd.ReadString('\n')
	if err != nil || first != "{\"row\": 1}\n" {
		t.Fatalf("first row %q, %v", first, err)
	}
	rt.ProbeOnce(context.Background())
	if rt.reps[owner].healthy.Load() {
		t.Fatal("the owner answered /readyz 503 but stayed in rotation")
	}
	unblock()
	rest, err := io.ReadAll(rd)
	if err != nil || string(rest) != "{\"row\": 2}\n" {
		t.Fatalf("rest of stream %q, %v; want the second row and a clean end", rest, err)
	}
}

// TestFailOpenAttemptSurvivesEjection: with every replica ejected the
// router fails open, counts it, and an attempt launched after the
// ejection is not canceled when later probes keep failing.
func TestFailOpenAttemptSurvivesEjection(t *testing.T) {
	_, handlers, rt := fakeReplicas(t, 1, Config{})
	proxy := httptest.NewServer(rt.Handler())
	t.Cleanup(proxy.Close)
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	*handlers[0] = func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		arrived <- struct{}{}
		<-release
		w.Write([]byte(`{"served": true}`))
	}
	rt.ProbeOnce(context.Background())
	if rt.reps[0].healthy.Load() {
		t.Fatal("warming replica still in rotation")
	}

	type result struct {
		code int
		body string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(proxy.URL+"/v1/predict", "application/json", strings.NewReader(`{"bench": "gzip"}`))
		if err != nil {
			done <- result{err: err}
			return
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- result{code: resp.StatusCode, body: string(b), err: err}
	}()
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("the fail-open attempt never reached the ejected replica")
	}
	rt.ProbeOnce(context.Background())
	close(release)
	res := <-done
	if res.err != nil || res.code != http.StatusOK || res.body != `{"served": true}` {
		t.Fatalf("fail-open request = (%d, %q, %v), want the replica's 200", res.code, res.body, res.err)
	}
	metricsBody := string(readAll(t, get(t, proxy.URL, "/metrics")))
	metricstest.Check(t, metricsBody)
	if !strings.Contains(metricsBody, "\nfomodelproxy_fail_open_total 1\n") {
		t.Fatalf("/metrics lacks fomodelproxy_fail_open_total 1:\n%s", metricsBody)
	}
}

// TestRawKeyRouteCounted: a body the proxy cannot key is still forwarded
// — the daemon's rejection stays authoritative — and the fallback shows
// on /metrics.
func TestRawKeyRouteCounted(t *testing.T) {
	_, repA := newDaemon(t)
	_, proxy := newProxy(t, Config{Replicas: []string{repA.URL}})
	readAll(t, post(t, proxy.URL, "/v1/predict", `{"bench": "gzip"}`, nil))
	resp := post(t, proxy.URL, "/v1/predict", `{"bench": "gzip", "bogus": 1}`, nil)
	if got := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unkeyable body: status %d, want the daemon's 400: %s", resp.StatusCode, got)
	}
	// A keyable batch whose items the daemon will reject routes by item
	// keys; the raw fallback for those items is not a routed body.
	readAll(t, post(t, proxy.URL, "/v1/batch", `{"items": [{"bench": "nosuch"}, {"bench": "gzip", "n": -1}]}`, nil))
	metricsBody := string(readAll(t, get(t, proxy.URL, "/metrics")))
	metricstest.Check(t, metricsBody)
	if !strings.Contains(metricsBody, "\nfomodelproxy_raw_key_routes_total 1\n") {
		t.Fatalf("/metrics lacks fomodelproxy_raw_key_routes_total 1:\n%s", metricsBody)
	}
}

// TestFailoverEjectAndReadmit kills a real replica process-style (its
// listener closes mid-fleet), verifies requests keyed to it fail over
// with zero client-visible errors, then revives it on the same port and
// verifies a /readyz probe restores its shard.
func TestFailoverEjectAndReadmit(t *testing.T) {
	_, repA := newDaemon(t)

	// Replica B runs on a manually managed listener so it can die and
	// come back on the same address (same ring identity).
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB := lnB.Addr().String()
	daemonB := server.New(server.Config{N: testN, Seed: 1}, nil)
	srvB := &http.Server{Handler: daemonB.Handler()}
	go srvB.Serve(lnB)

	rt, proxy := newProxy(t, Config{
		Replicas:   []string{repA.URL, "http://" + addrB},
		EjectAfter: 1,
	})
	idxB := 1

	// Find a key homed on replica B.
	var bodyB string
	for _, name := range workload.Names() {
		body := fmt.Sprintf(`{"bench": %q}`, name)
		if rt.ring.owner(routeKey(rt, "predict", []byte(body), server.PredictCacheKey)) == idxB {
			bodyB = body
			break
		}
	}
	if bodyB == "" {
		t.Skip("no workload key homed on replica B in this ring layout")
	}

	// Healthy fleet: B serves its shard.
	resp := post(t, proxy.URL, "/v1/predict", bodyB, nil)
	want := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-kill predict status %d: %s", resp.StatusCode, want)
	}
	servedByB := rt.reps[idxB].requests.Load()
	if servedByB == 0 {
		t.Fatal("replica B never saw its own shard's request")
	}

	// Kill B. The next requests for its shard must still all succeed —
	// transport failover re-routes them to the ring successor.
	srvB.Close()
	for i := 0; i < 5; i++ {
		resp := post(t, proxy.URL, "/v1/predict", bodyB, nil)
		got := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-kill request %d lost: status %d: %s", i, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("post-kill request %d: failover body differs from the original", i)
		}
	}
	if rt.reps[idxB].healthy.Load() {
		t.Fatal("replica B still marked healthy after transport failures")
	}
	if rt.reps[idxB].ejects.Load() == 0 {
		t.Fatal("replica B was never counted as ejected")
	}

	// A probe pass against the dead replica must keep it out.
	rt.ProbeOnce(context.Background())
	if rt.reps[idxB].healthy.Load() {
		t.Fatal("probe readmitted a dead replica")
	}

	// Revive B on the same port; a probe pass re-admits it and its shard
	// routes home again.
	var lnB2 net.Listener
	for i := 0; i < 50; i++ {
		lnB2, err = net.Listen("tcp", addrB)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("could not rebind %s: %v", addrB, err)
	}
	daemonB2 := server.New(server.Config{N: testN, Seed: 1}, nil)
	srvB2 := &http.Server{Handler: daemonB2.Handler()}
	go srvB2.Serve(lnB2)
	defer srvB2.Close()

	rt.ProbeOnce(context.Background())
	if !rt.reps[idxB].healthy.Load() {
		t.Fatal("probe did not readmit the revived replica")
	}
	if rt.reps[idxB].readmits.Load() == 0 {
		t.Fatal("readmission was not counted")
	}
	before := rt.reps[idxB].requests.Load()
	resp = post(t, proxy.URL, "/v1/predict", bodyB, nil)
	got := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-revive predict status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-revive body differs from the original")
	}
	if rt.reps[idxB].requests.Load() == before {
		t.Fatal("revived replica is not serving its shard again")
	}
}

// TestProbeEjectsWarmingReplica pins the /readyz semantics end to end:
// a live replica that reports "warming" is kept out of rotation, and
// rejoins when it reports ready.
func TestProbeEjectsWarmingReplica(t *testing.T) {
	srvA, repA := newDaemon(t)
	_, repB := newDaemon(t)
	rt, proxy := newProxy(t, Config{
		Replicas: []string{repA.URL, repB.URL},
	})

	srvA.SetReady(false)
	rt.ProbeOnce(context.Background())
	if rt.reps[0].healthy.Load() {
		t.Fatal("warming replica still in rotation after a probe pass")
	}
	if rt.reps[1].healthy.Load() != true {
		t.Fatal("ready replica ejected")
	}

	// All traffic — including keys homed on A — flows to B.
	before := rt.reps[1].requests.Load()
	for _, name := range []string{"gzip", "gcc", "mcf", "vpr"} {
		resp := post(t, proxy.URL, "/v1/predict", fmt.Sprintf(`{"bench": %q}`, name), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %s status %d", name, resp.StatusCode)
		}
		readAll(t, resp)
	}
	if rt.reps[0].requests.Load() != 0 {
		t.Fatal("warming replica received traffic")
	}
	if rt.reps[1].requests.Load()-before != 4 {
		t.Fatal("ready replica did not absorb the warming replica's shard")
	}

	srvA.SetReady(true)
	rt.ProbeOnce(context.Background())
	if !rt.reps[0].healthy.Load() {
		t.Fatal("ready replica was not readmitted")
	}
}

// TestProxyOwnEndpoints sanity-checks the proxy's self-describing
// surface: /healthz shape, /readyz transitions, /metrics exposition.
func TestProxyOwnEndpoints(t *testing.T) {
	_, repA := newDaemon(t)
	rt, proxy := newProxy(t, Config{Replicas: []string{repA.URL}})

	resp := get(t, proxy.URL, "/healthz")
	var hz healthzResponse
	if err := json.Unmarshal(readAll(t, resp), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || len(hz.Replicas) != 1 {
		t.Fatalf("healthz = %+v", hz)
	}

	resp = get(t, proxy.URL, "/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with a healthy replica = %d", resp.StatusCode)
	}
	readAll(t, resp)
	rt.reps[0].healthy.Store(false)
	resp = get(t, proxy.URL, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no healthy replicas = %d, want 503", resp.StatusCode)
	}
	readAll(t, resp)
	rt.reps[0].healthy.Store(true)

	// One real request so the counters are non-trivial.
	readAll(t, post(t, proxy.URL, "/v1/predict", `{"bench": "gzip"}`, nil))
	body := string(readAll(t, get(t, proxy.URL, "/metrics")))
	for _, want := range []string{
		"fomodelproxy_requests_total{path=\"/v1/predict\",code=\"200\"} 1",
		"fomodelproxy_replica_requests_total",
		"fomodelproxy_replica_healthy",
		"fomodelproxy_upstream_duration_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics is missing %q:\n%s", want, body)
		}
	}
}

// TestProxyMetricsExpositionParses checks that every sample line of the
// proxy's /metrics, after proxied traffic, reads as
// `name[{labels}] <float>`.
func TestProxyMetricsExpositionParses(t *testing.T) {
	_, repA := newDaemon(t)
	_, repB := newDaemon(t)
	_, proxy := newProxy(t, Config{Replicas: []string{repA.URL, repB.URL}})
	for _, body := range []string{`{"bench": "gzip"}`, `{"bench": "mcf"}`, `{"bench": "gzip"}`} {
		readAll(t, post(t, proxy.URL, "/v1/predict", body, nil))
	}
	body := string(readAll(t, get(t, proxy.URL, "/metrics")))
	if n := metricstest.Check(t, body); n == 0 {
		t.Fatal("proxy /metrics has no samples")
	}
	if !strings.Contains(body, "\nfomodelproxy_load_diversions_total 0\n") {
		t.Fatalf("/metrics lacks fomodelproxy_load_diversions_total:\n%s", body)
	}
}

// TestNewRejectsDuplicateReplicas: one URL listed twice would be one
// daemon counted twice by the bounded-load mean and exported twice under
// the same replica label.
func TestNewRejectsDuplicateReplicas(t *testing.T) {
	_, err := New(Config{Replicas: []string{"http://a", "http://b", "http://a"}}, nil)
	if err == nil || !strings.Contains(err.Error(), "http://a") {
		t.Fatalf("err = %v, want a duplicate-replica error naming http://a", err)
	}
}

// TestBoundedLoadDiversion pins the bounded-load cap over 2 healthy
// replicas: capacity = ceil(1.25 × (in-flight+1) / 2). An owner at 2 with
// its successor idle is at capacity (ceil(1.875) = 2), so the successor
// goes first and the diversion is counted; an owner at 1 is under
// capacity (ceil(1.25) = 2) and keeps the key.
func TestBoundedLoadDiversion(t *testing.T) {
	_, _, rt := fakeReplicas(t, 2, Config{})
	const key = "some-key"
	seq := rt.ring.sequence(key)
	owner, successor := rt.reps[seq[0]], rt.reps[seq[1]]

	owner.inflight.Add(1)
	if got := rt.candidates(key); got[0] != owner {
		t.Fatalf("owner at 1 in flight: first candidate %s, want the owner %s", got[0].url, owner.url)
	}
	if n := rt.loadDiversions.Load(); n != 0 {
		t.Fatalf("diversions = %d with the owner under capacity, want 0", n)
	}

	owner.inflight.Add(1)
	got := rt.candidates(key)
	if got[0] != successor || got[1] != owner {
		t.Fatalf("owner at 2 in flight: candidates %s, %s; want the successor %s first",
			got[0].url, got[1].url, successor.url)
	}
	if n := rt.loadDiversions.Load(); n != 1 {
		t.Fatalf("diversions = %d, want 1", n)
	}
}

// TestRequestIDFlowsThroughFleet: the proxy mints an ID, the daemon
// echoes it, and a client-supplied ID survives untouched.
func TestRequestIDFlowsThroughFleet(t *testing.T) {
	_, repA := newDaemon(t)
	_, proxy := newProxy(t, Config{Replicas: []string{repA.URL}})

	resp := post(t, proxy.URL, "/v1/predict", `{"bench": "gzip"}`, nil)
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("proxy did not mint an X-Request-ID")
	}
	readAll(t, resp)

	hdr := http.Header{"X-Request-ID": []string{"caller-7"}}
	resp = post(t, proxy.URL, "/v1/predict", `{"bench": "gzip"}`, hdr)
	if got := resp.Header.Get("X-Request-ID"); got != "caller-7" {
		t.Fatalf("caller-supplied request ID became %q", got)
	}
	readAll(t, resp)

	// And it reaches the daemon's error bodies through the proxy.
	resp = post(t, proxy.URL, "/v1/predict", `{"bench": "nope"}`, hdr)
	var e struct {
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(readAll(t, resp), &e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID != "caller-7" {
		t.Fatalf("daemon error body request_id = %q, want caller-7", e.RequestID)
	}
}

// TestProbeDoesNotRetryNotReady: a warming replica's /readyz 503 must
// resolve as one clean not-ready probe per pass — not be retried until
// the probe deadline converts it into a misleading timeout error.
func TestProbeDoesNotRetryNotReady(t *testing.T) {
	var hits atomic.Int32
	warming := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(warming.Close)

	rt, err := New(Config{Replicas: []string{warming.URL}, Defaults: testDefaults()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeOnce(context.Background())
	if got := hits.Load(); got != 1 {
		t.Fatalf("/readyz hit %d times in one probe pass, want exactly 1", got)
	}
	if rt.reps[0].healthy.Load() {
		t.Fatal("warming replica still in rotation after a probe pass")
	}
}

// TestSweepSpecKeySharing guards the shared-key contract for sweeps the
// same way reqkey's tests do for predict.
func TestSweepSpecKeySharing(t *testing.T) {
	spec := experiments.SweepSpec{Param: "rob", Benches: []string{"gzip"}, Values: []int{32}}
	fromServer, err := server.SweepCacheKey(spec, testDefaults())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Replicas: []string{"http://x:1"}, Defaults: testDefaults()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(spec)
	if got := routeKey(rt, "sweep", b, server.SweepCacheKey); got != fromServer {
		t.Fatalf("router sweep key %q != server cache key %q", got, fromServer)
	}
}

// TestOptimizeProxyByteEquality extends the byte-equality contract to
// /v1/optimize: buffered and streamed search responses relay through the
// proxy byte-identical to a lone daemon's, and repeats are cache hits on
// the key's home replica.
func TestOptimizeProxyByteEquality(t *testing.T) {
	_, ref := newDaemon(t)
	_, repA := newDaemon(t)
	_, repB := newDaemon(t)
	_, proxy := newProxy(t, Config{
		Replicas: []string{repA.URL, repB.URL},
	})

	optBody := `{"workloads":[{"bench":"gzip"}],"bounds":{"width":{"min":1,"max":4}},"budget":6}`
	for pass, wantCache := range []string{"miss", "hit"} {
		want := readAll(t, post(t, ref.URL, "/v1/optimize", optBody, nil))
		resp := post(t, proxy.URL, "/v1/optimize", optBody, nil)
		got := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pass %d: proxy optimize status %d: %s", pass, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pass %d: proxy optimize body differs from daemon's:\n got %q\nwant %q", pass, got, want)
		}
		if c := resp.Header.Get("X-Cache"); c != wantCache {
			t.Fatalf("pass %d: X-Cache = %q, want %q", pass, c, wantCache)
		}
	}

	// Streamed search: full NDJSON passthrough, row for row.
	ndjson := http.Header{"Accept": []string{"application/x-ndjson"}}
	wantStream := readAll(t, post(t, ref.URL, "/v1/optimize", optBody, ndjson))
	resp := post(t, proxy.URL, "/v1/optimize", optBody, ndjson)
	gotStream := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxy optimize stream status %d: %s", resp.StatusCode, gotStream)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("proxy optimize stream Content-Type = %q", ct)
	}
	if !bytes.Equal(gotStream, wantStream) {
		t.Fatalf("proxy optimize NDJSON stream differs from daemon's:\n got %q\nwant %q", gotStream, wantStream)
	}

	// An invalid spec still reaches a daemon (routed by raw bytes), whose
	// error response is authoritative.
	resp = post(t, proxy.URL, "/v1/optimize", `{"workloads":[]}`, nil)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: proxy status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestOptimizeSpecKeySharing guards the shared-key contract for optimize
// specs: the router derives the daemon's own cache key, spelling
// differences included.
func TestOptimizeSpecKeySharing(t *testing.T) {
	spec := optimize.Spec{
		Workloads: []optimize.WorkloadWeight{{Bench: "gzip"}},
		Bounds:    map[string]optimize.Bound{"width": {Min: 1, Max: 4}},
		Budget:    6,
	}
	fromServer, err := server.OptimizeCacheKey(spec, testDefaults())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Replicas: []string{"http://x:1"}, Defaults: testDefaults()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The implicit spelling and one with defaults written out share the key.
	for _, body := range []string{
		`{"workloads":[{"bench":"gzip"}],"bounds":{"width":{"min":1,"max":4}},"budget":6}`,
		`{"workloads":[{"bench":"gzip","weight":1}],"bounds":{"width":{"min":1,"max":4,"step":1}},"objective":"cpi","budget":6,"seed":1,"grid":3,"n":2000,"trace_seed":1}`,
	} {
		if got := routeKey(rt, "optimize", []byte(body), server.OptimizeCacheKey); got != fromServer {
			t.Fatalf("router optimize key %q != server cache key %q for body %s", got, fromServer, body)
		}
	}
}

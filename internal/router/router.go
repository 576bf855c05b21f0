// Package router implements fomodelproxy's routing core: a cache-aware
// HTTP proxy that spreads load across N fomodeld replicas while keeping
// each replica's caches hot. Requests are mapped onto replicas by the
// same canonical key the daemon's response cache uses (internal/reqkey +
// internal/server's typed key functions — one code path, so proxy and
// daemon can never shard by different keys), via a bounded-load
// consistent-hash ring. The router adds what a single client cannot:
// replica health (active /readyz probes plus passive failure counting,
// with ejection and re-admission) and sequential failover along the
// key's ring sequence — on a transport error, on a 429 while another
// replica remains, and on an ejection that catches an attempt still
// waiting for response headers. The proxy itself never retries or
// sleeps: the daemon's terminal answer, Retry-After included, reaches
// the client.
package router

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fomodel/internal/client"
	"fomodel/internal/httpfront"
	"fomodel/internal/metrics"
	"fomodel/internal/reqkey"
)

// Config parameterizes the router. The zero value of every field (other
// than Replicas) selects a production-shaped default.
type Config struct {
	// Replicas are the fomodeld base URLs, e.g. "http://127.0.0.1:8751".
	// At least one is required.
	Replicas []string
	// Defaults are the trace defaults (n, seed) shared with the replicas;
	// the proxy normalizes predict requests with them before keying, so
	// an explicit {"n":500000} and an implicit default land on the same
	// shard. Zero fields fall back to reqkey.StandardDefaults.
	Defaults reqkey.Defaults
	// EjectAfter is the consecutive-transport-failure count that passively
	// ejects a replica from rotation (0 = 3); an ejected replica rejoins
	// only when a /readyz probe succeeds.
	EjectAfter int
	// ProbeInterval is the /readyz probe period (0 = 2s) and ProbeTimeout
	// each probe's deadline (0 = 1s). A replica that hangs is ejected by
	// the first probe that times out, and the ejection fails its waiting
	// requests over, so together they bound how long a hung replica holds
	// a request.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// UpstreamTimeout bounds each buffered upstream attempt; streaming
	// attempts are bounded by the client's context only. The default
	// (0 = 150s) sits above the daemon's 2-minute computation deadline so
	// the daemon's own 503 arrives before the proxy gives up.
	UpstreamTimeout time.Duration
}

// maxIdleConns bounds each replica's keep-alive connection pool.
const maxIdleConns = 32

// loadFactor is the bounded-load factor c: a replica already carrying
// more than c×(mean in-flight) is skipped in favor of its ring
// successor, trading one request's cache locality for tail latency.
const loadFactor = 1.25

func (c Config) withDefaults() Config {
	c.Defaults = c.Defaults.WithFallback()
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.UpstreamTimeout == 0 {
		c.UpstreamTimeout = 150 * time.Second
	}
	return c
}

// replica is one fomodeld upstream: its pooled client plus the health
// state and counters the router keeps about it.
type replica struct {
	url string
	cl  *client.Client

	// healthy is flipped false by EjectAfter consecutive transport
	// failures or a failed /readyz probe, and true only by a successful
	// probe — a replica that is answering requests but still reports
	// "warming" stays out of rotation until its caches are actually hot.
	healthy     atomic.Bool
	consecFails atomic.Int32

	// waiting holds the cancel functions of attempts still waiting for
	// response headers; an ejection cancels them all.
	waitMu  sync.Mutex
	waiting map[*waiter]struct{}

	inflight metrics.Gauge
	requests metrics.Counter
	hits     metrics.Counter
	failures metrics.Counter
	ejects   metrics.Counter
	readmits metrics.Counter
}

// Router routes requests across the replica set. Construct with New;
// all methods are safe for concurrent use.
type Router struct {
	cfg   Config
	log   *slog.Logger
	ring  *ring
	reps  []*replica
	start time.Time

	// upstream times each forward call's wait on replicas (its attempts'
	// time to response headers, summed), and front.Latency each proxied
	// request end to end; for a request that makes one forward call, their
	// difference is the proxy's own cost. Workload-write fanouts are not
	// timed upstream.
	upstream *metrics.Histogram
	front    *httpfront.Front

	// failOpen counts routings that fell back to ejected replicas,
	// rawKeyRoutes bodies routed by their raw bytes for want of a key, and
	// loadDiversions routings where the bounded-load cap put a successor
	// ahead of the key's owner.
	failOpen       metrics.Counter
	rawKeyRoutes   metrics.Counter
	loadDiversions metrics.Counter

	reqIDSeq   atomic.Uint64
	probeGroup sync.WaitGroup

	// mirror tracks name → content hash for workload registrations the
	// proxy has replicated, so registered names canonicalize to the same
	// content-carrying keys on the proxy as on the daemons.
	mirror *workloadMirror
}

// New builds a router over cfg.Replicas, which must be distinct: a URL
// listed twice would be one daemon counted twice by the bounded-load
// mean and exported twice under one label set. A nil logger discards
// logs.
func New(cfg Config, log *slog.Logger) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("router: at least one replica URL is required")
	}
	seen := make(map[string]bool, len(cfg.Replicas))
	for _, url := range cfg.Replicas {
		if seen[url] {
			return nil, fmt.Errorf("router: replica %s is listed more than once", url)
		}
		seen[url] = true
	}
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	mirror := newWorkloadMirror()
	if cfg.Defaults.Resolver == nil {
		// The mirror doubles as the proxy's name resolver: once a
		// registration has fanned out, the name keys like a daemon's.
		cfg.Defaults.Resolver = mirror
	}
	rt := &Router{
		cfg:      cfg,
		log:      log,
		ring:     newRing(cfg.Replicas, vnodes),
		reps:     make([]*replica, len(cfg.Replicas)),
		start:    time.Now(),
		upstream: metrics.NewHistogram(metrics.DefaultLatencyBounds()...),
		mirror:   mirror,
	}
	rt.front = httpfront.New(log, rt.nextRequestID)
	for i, url := range cfg.Replicas {
		// The router only calls DoRaw, which makes one attempt: the
		// proxy never retries, and never sleeps on a Retry-After.
		cl := client.NewPooled(url, maxIdleConns)
		cl.RequestTimeout = cfg.UpstreamTimeout
		rep := &replica{url: url, cl: cl, waiting: make(map[*waiter]struct{})}
		// Replicas start in rotation; the first probe pass corrects this
		// within one ProbeInterval, and passive ejection corrects it after
		// EjectAfter failed requests even with probes disabled.
		rep.healthy.Store(true)
		rt.reps[i] = rep
	}
	return rt, nil
}

// Start launches the /readyz probe loop (one immediate pass, then every
// ProbeInterval) and returns. The loop stops when ctx is done; Wait
// blocks until it has.
func (rt *Router) Start(ctx context.Context) {
	rt.probeGroup.Add(1)
	go func() {
		defer rt.probeGroup.Done()
		rt.ProbeOnce(ctx)
		tick := time.NewTicker(rt.cfg.ProbeInterval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				rt.ProbeOnce(ctx)
			}
		}
	}()
}

// Wait blocks until the probe loop started by Start has exited.
func (rt *Router) Wait() { rt.probeGroup.Wait() }

// ProbeOnce probes every replica's /readyz once, concurrently, updating
// rotation membership. Exported so tests (and Start) drive probe passes
// deterministically.
func (rt *Router) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, rep := range rt.reps {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			rt.probe(ctx, rep)
		}(rep)
	}
	wg.Wait()
}

// probe asks one replica's /readyz and folds the answer into its health:
// ready re-admits (and resets the failure streak), anything else —
// refusal, timeout, or a 503 "warming" — ejects.
func (rt *Router) probe(ctx context.Context, rep *replica) {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	resp, err := rep.cl.DoRaw(pctx, http.MethodGet, "/readyz", nil, nil, false)
	ready := false
	if err == nil {
		//folint:allow(errdrop) best-effort probe-body drain for connection reuse; only the status code matters
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		resp.Body.Close() //folint:allow(errdrop) read-side close after a drain; there is nothing to act on
		ready = resp.StatusCode == http.StatusOK
	}
	if ready {
		rep.consecFails.Store(0)
		if rep.healthy.CompareAndSwap(false, true) {
			rep.readmits.Inc()
			rt.log.Info("replica readmitted", "replica", rep.url)
		}
		return
	}
	reason := "not ready"
	if err != nil {
		reason = err.Error()
	}
	rt.eject(rep, reason)
}

// waiter is one upstream attempt's entry in its replica's waiting set.
type waiter struct{ cancel context.CancelCauseFunc }

// errEjected is the cause an ejection cancels a waiting attempt with.
var errEjected = errors.New("replica ejected while the request waited for response headers")

// eject takes rep out of rotation, if it is in, and cancels its attempts
// still waiting for response headers so forward fails them over: a
// replica that hangs holds a request only until a probe times out. An
// attempt whose headers have arrived (a streaming relay) is left alone,
// as is any attempt launched after the ejection (fail-open routing to an
// ejected replica), since only the healthy-to-ejected transition cancels.
func (rt *Router) eject(rep *replica, reason string) {
	if !rep.healthy.CompareAndSwap(true, false) {
		return
	}
	rep.ejects.Inc()
	rep.waitMu.Lock()
	for w := range rep.waiting {
		w.cancel(errEjected)
		delete(rep.waiting, w)
	}
	rep.waitMu.Unlock()
	rt.log.Info("replica ejected", "replica", rep.url, "reason", reason)
}

// noteFailure records a transport-level failure against rep, ejecting it
// after EjectAfter consecutive ones. Status-level responses (even 500s)
// never land here: the daemon answered, so the daemon is reachable.
func (rt *Router) noteFailure(rep *replica, err error) {
	rep.failures.Inc()
	if int(rep.consecFails.Add(1)) >= rt.cfg.EjectAfter {
		rt.eject(rep, err.Error())
	}
}

// noteSuccess resets rep's failure streak. It deliberately does not
// re-admit: only a /readyz probe does, so a replica that was ejected
// while warming rejoins when its caches are ready, not merely reachable.
func (rt *Router) noteSuccess(rep *replica) {
	rep.consecFails.Store(0)
}

// candidates returns the replicas to try for key, in preference order:
// the key's ring sequence, healthy replicas first. With every replica
// ejected it falls back to the full sequence — attempting a
// probably-dead upstream beats refusing outright when there is nothing
// better. The bounded-load check may rotate an overloaded owner behind
// its first un-crowded successor.
func (rt *Router) candidates(key string) []*replica {
	order := rt.ring.sequence(key)
	cands := make([]*replica, 0, len(order))
	for _, i := range order {
		if rt.reps[i].healthy.Load() {
			cands = append(cands, rt.reps[i])
		}
	}
	if len(cands) == 0 {
		rt.failOpen.Inc()
		for _, i := range order {
			cands = append(cands, rt.reps[i])
		}
		return cands
	}
	if len(cands) > 1 {
		var total int64
		for _, rep := range rt.reps {
			total += rep.inflight.Load()
		}
		// Bounded load: capacity = ceil(c × (total+1) / healthy), counting
		// the request being placed.
		capacity := int64(math.Ceil(loadFactor * float64(total+1) / float64(len(cands))))
		for j, rep := range cands {
			if rep.inflight.Load() < capacity {
				if j > 0 {
					rt.loadDiversions.Inc()
					picked := cands[j]
					copy(cands[1:j+1], cands[:j])
					cands[0] = picked
				}
				break
			}
		}
	}
	return cands
}

// forward routes one request to the replica set and returns the first
// terminal response (any status, body intact — the caller relays it
// verbatim) and the replica that produced it.
//
// The candidates are tried one at a time, in order. A transport error,
// an ejection that cancels the attempt before its headers arrive, or a
// 429 while a candidate remains moves on to the next candidate at once.
// Anything else is the answer, including the last candidate's 429 with
// its Retry-After and a daemon's 503: the proxy never retries the same
// replica and never sleeps, so shedding advice reaches the client. A
// spilled 429 is kept, buffered, and relayed if every later candidate
// fails, so a retryable shed never turns into the proxy's own 502.
func (rt *Router) forward(ctx context.Context, method, path string, body []byte, hdr http.Header, stream bool, key string) (*http.Response, *replica, error) {
	cands := rt.candidates(key)
	var (
		err    error
		waited time.Duration
		shed   *http.Response
		shedBy *replica
	)
	for i, rep := range cands {
		var resp *http.Response
		begin := time.Now()
		resp, err = rt.try(ctx, rep, method, path, body, hdr, stream)
		waited += time.Since(begin)
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests && i < len(cands)-1 {
			b, rerr := io.ReadAll(io.LimitReader(resp.Body, maxShedBody))
			resp.Body.Close() //folint:allow(errdrop) read-side close after buffering; the next candidate serves
			if rerr == nil {
				resp.Body = io.NopCloser(bytes.NewReader(b))
				shed, shedBy = resp, rep
			}
			continue
		}
		rt.upstream.Observe(waited.Seconds())
		return resp, rep, nil
	}
	if shed != nil {
		rt.upstream.Observe(waited.Seconds())
		return shed, shedBy, nil
	}
	return nil, nil, err
}

// maxShedBody bounds how much of a spilled 429 forward buffers; a
// daemon's shed answer is a one-line JSON error.
const maxShedBody = 1 << 16

// try makes one upstream call to rep and returns when its response
// headers arrive. Until then the call sits in rep's waiting set, where
// an ejection cancels it with errEjected.
func (rt *Router) try(ctx context.Context, rep *replica, method, path string, body []byte, hdr http.Header, stream bool) (*http.Response, error) {
	actx, cancel := context.WithCancelCause(ctx)
	w := &waiter{cancel: cancel}
	rep.waitMu.Lock()
	rep.waiting[w] = struct{}{}
	rep.waitMu.Unlock()

	rep.requests.Inc()
	rep.inflight.Add(1)
	resp, err := rep.cl.DoRaw(actx, method, path, body, hdr, stream)
	rep.inflight.Add(-1)

	rep.waitMu.Lock()
	_, waited := rep.waiting[w]
	delete(rep.waiting, w)
	rep.waitMu.Unlock()
	if !waited {
		// The ejection won the race with the headers: fail over even if
		// a response slipped in, so the outcome depends on one event.
		if err == nil {
			resp.Body.Close() //folint:allow(errdrop) discarding a response its ejection already canceled
		}
		return nil, errEjected
	}
	if err != nil {
		cancel(err)
		if ctx.Err() == nil {
			rt.noteFailure(rep, err)
		}
		return nil, err
	}
	rt.noteSuccess(rep)
	resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// cancelOnClose releases an attempt's context when the relayed body is
// done, mirroring the client's cancelingBody.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelCauseFunc
}

func (b *cancelOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.cancel(nil)
	return err
}

// rawKey routes an unkeyable body by its bytes, counting the fallback;
// the derivation lives in reqkey.Raw so the fallback keyspace is defined
// next to the canonical one it must stay disjoint from.
func (rt *Router) rawKey(endpoint string, body []byte) string {
	rt.rawKeyRoutes.Inc()
	return reqkey.Raw(endpoint, body)
}

// routeKey derives body's routing key: decoded strictly as a T and keyed
// by keyOf, the daemon's own response-cache key function (normalization
// included), so a request routes by the key its replica caches it under
// and repeated searches land on the replica already holding the result.
// A body that fails to decode or to key routes by its raw bytes.
func routeKey[T any](rt *Router, endpoint string, body []byte, keyOf func(T, reqkey.Defaults) (string, error)) string {
	var v T
	if err := httpfront.DecodeStrict(body, &v); err != nil {
		return rt.rawKey(endpoint, body)
	}
	key, err := keyOf(v, rt.cfg.Defaults)
	if err != nil {
		return rt.rawKey(endpoint, body)
	}
	return key
}

// nextRequestID mints a proxy-scoped request ID: a monotonically
// increasing sequence number under a per-process prefix derived from the
// router's start time, so IDs from proxy restarts do not collide while
// staying cheap and allocation-free to generate.
func (rt *Router) nextRequestID() string {
	return fmt.Sprintf("%x-%x", rt.start.UnixNano(), rt.reqIDSeq.Add(1))
}

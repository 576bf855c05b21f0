package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"fomodel/internal/artifact"
)

// setupRounds is how many times a run sets its system up; setup_s is the
// median, so one slow start cannot move it.
const setupRounds = 3

// bench holds what every workload run of one invocation shares.
type bench struct {
	opts   options
	bins   map[string]string
	runDir string
	// golden is nil when verification against goldens is off.
	golden *goldenFile
	// spans is nil unless the run is traced.
	spans *recorder
	log   io.Writer
}

// runResult is everything one workload run measured.
type runResult struct {
	workload          string
	seed              uint64
	attempted, failed int
	failures          []string
	// metrics holds every measured value by name: the end-to-end set, the
	// per-layer set (complete only when traced), and diagnostics.
	metrics    map[string]float64
	latSamples int
	// setups are the set-up rounds' times scaled to the nominal host;
	// setupsRaw as measured.
	setups, setupsRaw []float64
	procs             []string
	spanStats         []spanStats
	// verification holds the live system's verification-set bodies.
	verification [][]byte
}

func (r *runResult) count(ph phaseResult) {
	r.attempted += ph.attempted
	r.failed += len(ph.failures)
	r.failures = append(r.failures, ph.failures...)
}

func (r *runResult) fail(msgs ...string) {
	r.failed += len(msgs)
	r.failures = append(r.failures, msgs...)
}

// measured is one closed-loop phase with the system's counters around
// it.
type measured struct {
	phaseResult
	delta delta
	// procs names the system's processes, in the order of the slices'
	// CPU times.
	procs []string
}

// measure runs a timed phase in one-second slices with host-speed probes
// between them, scraping the system's counters before and after.
func (b *bench) measure(ctx context.Context, sys *system, clients []*http.Client, tr traffic, cursor *atomic.Int64, host *kernel, o phaseOpts) (measured, error) {
	o.slices = max(int(o.dur.Round(time.Second)/time.Second), 2)
	o.host = host
	o.cpu = func() ([]time.Duration, time.Duration, error) {
		procs, err := sys.cpu()
		if err != nil {
			return nil, 0, err
		}
		self, err := cpuTime("self")
		return procs, self, err
	}
	m := measured{delta: delta{before: takeSnapshot(ctx, sys)}}
	for _, p := range sys.procs() {
		m.procs = append(m.procs, p.name)
	}
	var err error
	if m.phaseResult, err = runPhase(ctx, clients, sys.entry(), tr, cursor, o); err != nil {
		return measured{}, err
	}
	m.delta.after = takeSnapshot(ctx, sys)
	return m, nil
}

// warmupFor is the untimed warm-up before a timed phase of the given
// length: a fifth of it, between 0.2s and 5s.
func warmupFor(timed time.Duration) time.Duration {
	return min(max(timed/5, 200*time.Millisecond), 5*time.Second)
}

// setUp launches the workload's system setupRounds times, keeping the
// last one, and records each launch-to-populated time.
func (b *bench) setUp(ctx context.Context, w workloadDef, host *kernel, res *runResult) (*system, map[string][]byte, error) {
	for k := 0; ; k++ {
		dir := filepath.Join(b.runDir, fmt.Sprintf("%s-s%d-%d", w.name, res.seed, k))
		clients := newClients()
		speed := host.slowness()
		start := time.Now()
		sys, err := launch(ctx, b.bins, w.topology(b.opts.n), b.opts.n, dir)
		if err != nil {
			return nil, nil, err
		}
		expected, err := w.populate(ctx, clients, sys.entry())
		closeClients(clients)
		if err != nil {
			sys.stop()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start).Seconds()
		res.setupsRaw = append(res.setupsRaw, took)
		res.setups = append(res.setups, took/((speed+host.slowness())/2))
		if k == setupRounds-1 {
			return sys, expected, nil
		}
		sys.stop()
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
}

// runWorkload runs one workload at one load seed.
func (b *bench) runWorkload(ctx context.Context, w workloadDef, seed uint64) (*runResult, error) {
	res := &runResult{workload: w.name, seed: seed, metrics: map[string]float64{}}
	host, err := w.reference()
	if err != nil {
		return nil, err
	}
	defer host.close()
	fmt.Fprintf(b.log, "fobench: %s seed %d: set-up\n", w.name, seed)
	sys, expected, err := b.setUp(ctx, w, host, res)
	if err != nil {
		return nil, err
	}
	defer sys.stop()
	for _, p := range sys.procs() {
		res.procs = append(res.procs, fmt.Sprintf("%s GOMAXPROCS=%d", p.name, p.procs))
	}
	clients := newClients()
	defer closeClients(clients)
	tr := w.traffic(seed)
	check := w.check(expected)
	var cursor atomic.Int64
	timed := time.Duration(b.opts.seconds * float64(time.Second))

	fmt.Fprintf(b.log, "fobench: %s seed %d: warm-up %s, timed %s\n", w.name, seed, warmupFor(timed), timed)
	warm, err := runPhase(ctx, clients, sys.entry(), tr, &cursor, phaseOpts{dur: warmupFor(timed), check: check})
	if err != nil {
		return nil, err
	}
	res.count(warm)
	// A traced run splits its timed phase: the untraced half gives the
	// end-to-end numbers and the baseline for the tracing overhead, the
	// traced half the spans and the counter deltas.
	plainDur := timed
	if b.spans != nil {
		plainDur = timed / 2
	}
	plain, err := b.measure(ctx, sys, clients, tr, &cursor, host, phaseOpts{dur: plainDur, check: check, keep: w.keep})
	if err != nil {
		return nil, err
	}
	res.count(plain.phaseResult)
	layer := plain
	if b.spans != nil {
		layer, err = b.measure(ctx, sys, clients, tr, &cursor, host, phaseOpts{dur: timed - plainDur, check: check, keep: w.keep, spans: b.spans, workload: w.name})
		if err != nil {
			return nil, err
		}
		res.count(layer.phaseResult)
		res.metrics["trace_overhead_pct"] = 100 * ratio(plain.throughputNorm()-layer.throughputNorm(), plain.throughputNorm())
	}
	res.endToEnd(plain)
	for k, v := range layer.delta.counterMetrics() {
		res.metrics[k] = v
	}
	res.metrics["scrape_errors"] = float64(layer.delta.before.errors + layer.delta.after.errors)
	_, sysCPU, selfCPU := plain.cpu(false)
	res.metrics["loadgen.cpu_share"] = ratio(selfCPU.Seconds(), (selfCPU + sysCPU).Seconds())
	if b.spans != nil && sys.proxy != nil {
		hop, err := routerHop(ctx, clients[0], sys, tr)
		if err != nil {
			return nil, err
		}
		res.metrics["router.hop_us"] = hop
	}

	fmt.Fprintf(b.log, "fobench: %s seed %d: verification set\n", w.name, seed)
	b.verify(ctx, clients, sys, res)
	rss, err := sys.peakRSS()
	if err != nil {
		return nil, err
	}
	res.metrics["rss_mb"] = rss
	sys.stop()

	if b.spans != nil {
		fmt.Fprintf(b.log, "fobench: %s seed %d: in-process replay\n", w.name, seed)
		first := len(b.spans.snapshot())
		if err := b.replay(ctx, w, sys, layer.captured, res); err != nil {
			return nil, err
		}
		res.spanStats = selfStats(b.spans.snapshot()[first:])
		for k, v := range layerTimings(res.spanStats, b.opts.n) {
			res.metrics[k] = v
		}
	}
	return res, nil
}

// endToEnd derives the user-visible metrics of an untraced phase, scaled
// to the nominal host, plus their as-measured values under "raw.".
func (r *runResult) endToEnd(m measured) {
	r.latSamples = len(m.lat)
	_, sysNorm, _ := m.cpu(true)
	procsRaw, sysRaw, _ := m.cpu(false)
	var speeds []float64
	for _, s := range m.slices {
		speeds = append(speeds, s.speed)
	}
	for k, v := range map[string]float64{
		"throughput_rps":     m.throughputNorm(),
		"latency_p50_ms":     percentile(m.latNorm, 0.5),
		"latency_p90_ms":     percentile(m.latNorm, 0.9),
		"latency_p99_ms":     percentile(m.latNorm, 0.99),
		"setup_s":            median(r.setups),
		"cpu_ms_per_req":     1000 * ratio(sysNorm.Seconds(), float64(m.ok)),
		"raw.throughput_rps": m.throughput(),
		"raw.latency_p50_ms": percentile(m.lat, 0.5),
		"raw.latency_p90_ms": percentile(m.lat, 0.9),
		"raw.latency_p99_ms": percentile(m.lat, 0.99),
		"raw.setup_s":        median(r.setupsRaw),
		"raw.cpu_ms_per_req": 1000 * ratio(sysRaw.Seconds(), float64(m.ok)),
		"host_slowness":      median(speeds),
		"error_rate":         ratio(float64(len(m.failures)), float64(m.attempted)),
	} {
		r.metrics[k] = v
	}
	for i, d := range procsRaw {
		r.metrics["raw.cpu_ms_per_req."+m.procs[i]] = 1000 * ratio(d.Seconds(), float64(m.ok))
	}
}

// verify replays the verification set against the live system, checks
// the digests against the goldens, and derives the model's CPI error from
// its sweeps.
func (b *bench) verify(ctx context.Context, clients []*http.Client, sys *system, res *runResult) {
	set := verificationSet()
	replies := fetchAll(ctx, clients, sys.entry(), set)
	res.attempted += len(set)
	var sweeps [][]byte
	for i, rep := range replies {
		res.verification = append(res.verification, rep.body)
		if msg := failure(set[i], rep, nil); msg != "" {
			res.fail("verification: " + msg)
		}
		if verificationClass(i) == "sweep" {
			sweeps = append(sweeps, rep.body)
		}
	}
	if b.golden != nil {
		res.fail(b.golden.mismatches(res.verification)...)
	}
	cpiErr, err := sweepCPIError(sweeps)
	if err != nil {
		res.fail("verification sweeps: " + err.Error())
	}
	res.metrics["model.cpi_err_pct"] = cpiErr
}

// routerHop is the proxy's added latency on a cache hit: the median of
// requests for one hot key through the proxy minus the median of the same
// requests sent straight to the replica that owns the key.
func routerHop(ctx context.Context, hc *http.Client, sys *system, tr traffic) (float64, error) {
	r := tr.at(0)
	for i := 0; i < 2; i++ { // the second request through the proxy is a hit at the owner
		if rep := send(ctx, hc, sys.proxy.url, r); rep.err != nil || rep.status != http.StatusOK {
			return 0, fmt.Errorf("router hop: %s", failure(r, rep, nil))
		}
	}
	var owner *proc
	for _, p := range sys.daemons {
		rep := send(ctx, hc, p.url, r)
		if rep.err == nil && rep.status == http.StatusOK && rep.cacheHit {
			owner = p
			break
		}
	}
	if owner == nil {
		return 0, fmt.Errorf("router hop: no replica holds %s", r.Body)
	}
	const rounds = 400
	var via, direct []float64
	for i := 0; i < rounds; i++ {
		for _, target := range []struct {
			url string
			out *[]float64
		}{{sys.proxy.url, &via}, {owner.url, &direct}} {
			rep := send(ctx, hc, target.url, r)
			if rep.err != nil || rep.status != http.StatusOK {
				return 0, fmt.Errorf("router hop: %s", failure(r, rep, nil))
			}
			*target.out = append(*target.out, float64(rep.end.Sub(rep.start))/float64(time.Microsecond))
		}
	}
	sort.Float64s(via)
	sort.Float64s(direct)
	return percentile(via, 0.5) - percentile(direct, 0.5), nil
}

// replayRounds is how many times each sampled predict is replayed. The
// first round computes or reads the analysis cold; later rounds see what
// a steady daemon sees: warm code paths and, off the store path, an
// analysis-cache hit.
const replayRounds = 5

// replay re-executes a sample of the traced phase's requests and the
// verification set in process, asserting each rebuilt body equals the
// live system's, then times the layer calls the replays do not reach.
func (b *bench) replay(ctx context.Context, w workloadDef, sys *system, captured []capture, res *runResult) error {
	rp := newReplayer(b.spans, w.name, b.opts.n)
	var store *artifact.Store
	if w.fromStore {
		var err error
		if store, err = artifact.Open(sys.store, 0); err != nil {
			return err
		}
	}
	type item struct {
		what  string
		req   request
		want  []byte
		store *artifact.Store
	}
	var items []item
	for _, c := range captured {
		items = append(items, item{string(c.req.Body), c.req, c.body, store})
	}

	// Fill a bounded store to its steady state first, so the analysis
	// artifacts written next are its newest files and survive.
	rng := rngAt(res.seed, streamProbe, 0)
	payload, err := rp.traceBytes(builtins[rng.IntN(len(builtins))], b.opts.n)
	if err != nil {
		return err
	}
	probeDir := filepath.Join(b.runDir, fmt.Sprintf("%s-s%d-probe", w.name, res.seed))
	defer os.RemoveAll(probeDir)
	if err := rp.probeStore(probeDir, coldStoreBytes(b.opts.n), payload, 8); err != nil {
		return err
	}
	probe, err := artifact.Open(probeDir, coldStoreBytes(b.opts.n))
	if err != nil {
		return err
	}
	var keys []lookupKey
	for i, r := range verificationSet() {
		it := item{"verification " + strconv.Itoa(i), r, res.verification[i], nil}
		if verificationClass(i) == "store" {
			// Compute the analysis and persist it as the owning replica
			// did; the replays below serve the request from the store.
			rep, err := rp.predict(r.Body, nil)
			if err != nil {
				return fmt.Errorf("replay %s: %w", r.Body, err)
			}
			if err := storeAnalysis(probe, rep); err != nil {
				return err
			}
			keys = append(keys, rep.key)
			it.store = probe
		}
		items = append(items, it)
	}
	for round := 0; round < replayRounds; round++ {
		for _, it := range items {
			sweep := it.req.Path == "/v1/sweep"
			if sweep && round > 0 {
				continue // a sweep replay is 12 simulations; once is enough
			}
			res.attempted++
			var got []byte
			if sweep {
				got, err = rp.sweep(it.req.Body)
			} else {
				var rep replayed
				rep, err = rp.predict(it.req.Body, it.store)
				got = rep.body
			}
			if err != nil {
				return fmt.Errorf("replay %s: %w", it.req.Body, err)
			}
			if !bytes.Equal(got, it.want) {
				res.fail(fmt.Sprintf("replay: %s: in-process body differs from the served one", it.what))
			}
		}
	}
	if err := rp.probeLookup(probe, keys); err != nil {
		return err
	}
	if err := rp.probeSimulate(builtins[rng.IntN(len(builtins))], b.opts.n, 3); err != nil {
		return err
	}
	for i, r := range verificationSet() {
		if verificationClass(i) == "sweep" {
			if err := rp.probeSweep(ctx, r.Body); err != nil {
				return err
			}
		}
	}
	return nil
}

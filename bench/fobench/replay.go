package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"fomodel/internal/artifact"
	"fomodel/internal/core"
	"fomodel/internal/experiments"
	"fomodel/internal/iw"
	"fomodel/internal/reqkey"
	"fomodel/internal/server"
	"fomodel/internal/stats"
	"fomodel/internal/trace"
	"fomodel/internal/uarch"
	"fomodel/internal/workload"
)

// replayer re-executes requests in process by calling each layer's public
// functions in the order the daemon calls them, with one span around each
// call. The bodies it builds must be byte-equal to the daemon's for the
// same request; that equality is what ties the per-layer timings to the
// served path.
type replayer struct {
	rec      *recorder
	workload string
	defaults reqkey.Defaults
	// traces caches generated traces by content ID, as the daemon's
	// suite and trace cache do, and analyses computed bundles by analysis
	// key, as its analysis cache does.
	traces   map[string]*trace.Trace
	analyses map[string]*experiments.AnalysisArtifact
	// suite is a local experiment suite for sweep replays; Workers 0
	// gives it the daemon's default pool size.
	suite *experiments.Suite
	req   int64
}

// replayReqBase numbers replayed requests apart from the load's request
// indices in the span file.
const replayReqBase = 1 << 40

func newReplayer(rec *recorder, workloadName string, n int) *replayer {
	return &replayer{
		rec:      rec,
		workload: workloadName,
		defaults: reqkey.Defaults{N: n, Seed: 1},
		traces:   map[string]*trace.Trace{},
		analyses: map[string]*experiments.AnalysisArtifact{},
		suite:    experiments.NewSuite(n, 1),
		req:      replayReqBase,
	}
}

// step runs fn inside a span named name under parent.
func (rp *replayer) step(name string, parent int, fn func() error) error {
	id := rp.rec.open(rp.workload, name, parent, rp.req)
	err := fn()
	rp.rec.close(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// decodeStrict decodes a request body the way the daemon does: unknown
// fields and trailing data are errors.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after the JSON object")
	}
	return nil
}

// predictStatsConfig mirrors the daemon's functional-analysis
// configuration for a predict request. A drift between the two shows up
// as replayed bodies that differ from the daemon's, or as store misses.
func predictStatsConfig(machine core.Machine, ucfg uarch.Config) stats.Config {
	scfg := stats.DefaultConfig()
	scfg.Warmup = true
	scfg.ROBSize = machine.ROBSize
	scfg.TLB = ucfg.TLB
	return scfg
}

// replayed is one replayed predict: its body, the analysis bundle it was
// built from, and the key the daemon stores that bundle under.
type replayed struct {
	body []byte
	an   *experiments.AnalysisArtifact
	key  lookupKey
}

// predict replays one /v1/predict body. With a store, the analysis
// bundle is read from it, as a replica with a warm store serves it;
// otherwise it comes from the in-memory analysis cache, or is computed
// from the trace and cached.
func (rp *replayer) predict(body []byte, store *artifact.Store) (replayed, error) {
	rp.req++
	root := rp.rec.open(rp.workload, "replay.predict", 0, rp.req)
	defer rp.rec.close(root)
	var (
		req     server.PredictRequest
		machine core.Machine
		ucfg    uarch.Config
		mode    core.BranchPenaltyMode
	)
	err := rp.step("server.decode_normalize", root, func() error {
		if err := decodeStrict(body, &req); err != nil {
			return err
		}
		if err := req.Normalize(rp.defaults); err != nil {
			return err
		}
		var err error
		if mode, err = server.ParseBranchMode(req.BranchMode); err != nil {
			return err
		}
		if machine, err = req.Machine.Machine(); err != nil {
			return err
		}
		if ucfg, err = req.Machine.SimConfig(); err != nil {
			return err
		}
		if err := machine.Validate(); err != nil {
			return err
		}
		return ucfg.Validate()
	})
	if err != nil {
		return replayed{}, err
	}
	if err := rp.step("server.PredictCacheKey", root, func() error {
		_, err := server.PredictCacheKey(req, rp.defaults)
		return err
	}); err != nil {
		return replayed{}, err
	}
	out := replayed{key: lookupKey{contentID: workload.ContentID(req.Bench, req.N, req.Seed), n: req.N, scfg: predictStatsConfig(machine, ucfg)}}
	key := out.key.String()
	an := rp.analyses[key]
	switch {
	case store != nil:
		an, err = rp.storedAnalysis(root, store, key, req.N)
	case an == nil:
		an, err = rp.computedAnalysis(root, req.Bench, req.N, req.Seed, out.key.scfg)
		rp.analyses[key] = an
	}
	if err != nil {
		return replayed{}, err
	}
	var inputs core.Inputs
	if err := rp.step("core.InputsFromCurve", root, func() (err error) {
		inputs, err = core.InputsFromCurve(an.Law, an.Points, machine.WindowSize, an.Summary)
		return err
	}); err != nil {
		return replayed{}, err
	}
	var est core.Estimate
	if err := rp.step("core.Machine.Estimate", root, func() (err error) {
		est, err = machine.Estimate(inputs, core.Options{BranchMode: mode})
		return err
	}); err != nil {
		return replayed{}, err
	}
	out.an = an
	err = rp.step("server.EncodeIndented", root, func() (err error) {
		out.body, err = server.EncodeIndented(server.PredictRecord{Bench: req.Bench, Inputs: inputs, Estimate: est})
		return err
	})
	return out, err
}

// trace returns the (bench, n, seed) trace, generating it on first use.
func (rp *replayer) trace(parent int, bench string, n int, seed uint64) (*trace.Trace, error) {
	id := workload.ContentID(bench, n, seed)
	if t := rp.traces[id]; t != nil {
		return t, nil
	}
	var t *trace.Trace
	err := rp.step("workload.Generate", parent, func() (err error) {
		t, err = workload.Generate(bench, n, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	rp.traces[id] = t
	return t, nil
}

// computedAnalysis is the cache-cold analysis path: trace, IW
// characteristic and power-law fit, functional statistics.
func (rp *replayer) computedAnalysis(parent int, bench string, n int, seed uint64, scfg stats.Config) (*experiments.AnalysisArtifact, error) {
	t, err := rp.trace(parent, bench, n, seed)
	if err != nil {
		return nil, err
	}
	a := &experiments.AnalysisArtifact{}
	if err := rp.step("iw.Characteristic", parent, func() (err error) {
		a.Points, err = iw.Characteristic(t, iw.DefaultWindows(), iw.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	if err := rp.step("iw.Fit", parent, func() (err error) {
		a.Law, err = iw.Fit(a.Points)
		return err
	}); err != nil {
		return nil, err
	}
	err = rp.step("stats.Analyze", parent, func() (err error) {
		a.Summary, err = stats.Analyze(t, scfg)
		return err
	})
	return a, err
}

// storedAnalysis is the warm-store path LookupAnalysis takes: read the
// artifact, decode it, check its shape.
func (rp *replayer) storedAnalysis(parent int, store *artifact.Store, key string, n int) (*experiments.AnalysisArtifact, error) {
	var b []byte
	if err := rp.step("artifact.Store.Get", parent, func() error {
		var ok bool
		if b, ok = store.Get("analysis", key); !ok {
			return fmt.Errorf("analysis %q is not in the store", key)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var a experiments.AnalysisArtifact
	if err := rp.step("artifact.DecodeGob", parent, func() error { return artifact.DecodeGob(b, &a) }); err != nil {
		return nil, err
	}
	if a.Summary == nil || a.Summary.Instructions < n || len(a.Points) != len(iw.DefaultWindows()) {
		return nil, errors.New("stored analysis has the wrong shape")
	}
	return &a, nil
}

// sweep replays one /v1/sweep body cell by cell on one goroutine, so the
// simulator and analysis calls nest under one parent span, and rebuilds
// the daemon's response.
func (rp *replayer) sweep(body []byte) ([]byte, error) {
	rp.req++
	root := rp.rec.open(rp.workload, "replay.sweep", 0, rp.req)
	defer rp.rec.close(root)
	var spec experiments.SweepSpec
	if err := decodeStrict(body, &spec); err != nil {
		return nil, err
	}
	if err := spec.ValidateFor(rp.suite); err != nil {
		return nil, err
	}
	title := spec.Title
	if title == "" {
		title = fmt.Sprintf("Design-space sweep: %s across %s", spec.Param, strings.Join(spec.Benches, ", "))
	}
	res := &experiments.SweepResult{Title: title, Param: spec.Param}
	for _, b := range spec.Benches {
		var w *experiments.Workload
		if err := rp.step("experiments.Suite.Workload", root, func() (err error) {
			w, err = rp.suite.Workload(b)
			return err
		}); err != nil {
			return nil, err
		}
		for _, v := range spec.Values {
			pt, err := rp.sweepCell(root, w, spec.Param, v)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, pt)
		}
	}
	for _, p := range res.Points {
		res.MeanAbsErr += math.Abs(p.Err)
	}
	res.MeanAbsErr /= float64(len(res.Points))
	var out []byte
	err := rp.step("server.EncodeIndented", root, func() (err error) {
		out, err = server.EncodeIndented(server.SweepResponse{SweepResult: res, Render: res.Render(), CSV: res.CSV()})
		return err
	})
	return out, err
}

// sweepCell computes one grid cell the way the experiments package's
// cell functions do: simulate with the parameter applied, then re-derive
// the model inputs that depend on it and estimate.
func (rp *replayer) sweepCell(parent int, w *experiments.Workload, param string, v int) (experiments.SweepPoint, error) {
	s := rp.suite
	m := s.Machine
	var mutate func(*uarch.Config)
	switch param {
	case "window":
		mutate = func(c *uarch.Config) { c.WindowSize, c.ROBSize = v, max(c.ROBSize, v) }
		m.WindowSize, m.ROBSize = v, max(m.ROBSize, v)
	case "rob":
		mutate = func(c *uarch.Config) { c.ROBSize = v }
		m.ROBSize = v
	case "width":
		mutate = func(c *uarch.Config) { c.Width = v }
		m.Width = v
	case "depth":
		mutate = func(c *uarch.Config) { c.FrontEndDepth = v }
		m.FrontEndDepth = v
	default:
		return experiments.SweepPoint{}, fmt.Errorf("unknown sweep parameter %q", param)
	}
	var sim *uarch.Result
	if err := rp.step("experiments.Suite.Simulate", parent, func() (err error) {
		sim, err = s.Simulate(w, mutate)
		return err
	}); err != nil {
		return experiments.SweepPoint{}, err
	}
	in := w.Inputs
	if param == "window" || param == "rob" {
		sum := w.Summary
		if param == "rob" {
			scfg := stats.DefaultConfig()
			scfg.Hierarchy, scfg.PredictorBits, scfg.Latencies = s.Sim.Hierarchy, s.Sim.PredictorBits, s.Sim.Latencies
			scfg.ROBSize, scfg.Warmup = v, s.Sim.Warmup
			if err := rp.step("stats.Analyze", parent, func() (err error) {
				sum, err = stats.Analyze(w.Trace, scfg)
				return err
			}); err != nil {
				return experiments.SweepPoint{}, err
			}
		}
		if err := rp.step("core.InputsFromCurve", parent, func() (err error) {
			in, err = core.InputsFromCurve(w.Law, w.Points, m.WindowSize, sum)
			return err
		}); err != nil {
			return experiments.SweepPoint{}, err
		}
	}
	var est core.Estimate
	if err := rp.step("core.Machine.Estimate", parent, func() (err error) {
		est, err = m.Estimate(in, core.Options{})
		return err
	}); err != nil {
		return experiments.SweepPoint{}, err
	}
	cpi := sim.CPI()
	relErr := 0.0
	if cpi != 0 {
		relErr = (est.CPI - cpi) / cpi
	}
	return experiments.SweepPoint{Bench: w.Name, Value: v, SimCPI: cpi, ModelCPI: est.CPI, Err: relErr}, nil
}

// probeSweep times experiments.Sweep itself, on the replayer's suite
// (warm once the serial replays have run) with the daemon's worker count.
func (rp *replayer) probeSweep(ctx context.Context, body []byte) error {
	var spec experiments.SweepSpec
	if err := decodeStrict(body, &spec); err != nil {
		return err
	}
	rp.req++
	return rp.step("experiments.Sweep", 0, func() error {
		_, err := experiments.Sweep(ctx, rp.suite, spec)
		return err
	})
}

// probeSimulate times the simulator with a cold classification cache
// ("uarch.PrepCache.Simulate.fresh": classification, producer links and
// the timing loop) and with the classification reused (the timing loop
// alone), rounds times each.
func (rp *replayer) probeSimulate(bench string, n, rounds int) error {
	rp.req++
	t, err := rp.trace(0, bench, n, 1)
	if err != nil {
		return err
	}
	cfg := uarch.DefaultConfig()
	for i := 0; i < rounds; i++ {
		pc := uarch.NewPrepCache()
		if err := rp.step("uarch.PrepCache.Simulate.fresh", 0, func() error {
			_, err := pc.Simulate(t, cfg)
			return err
		}); err != nil {
			return err
		}
		if err := rp.step("uarch.PrepCache.Simulate", 0, func() error {
			_, err := pc.Simulate(t, cfg)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// probeStore times artifact.Store.Put of trace-sized payloads into a
// store held at its size bound, as cold-model's store is once it evicts:
// it fills the store until the first eviction, then times rounds more
// writes.
func (rp *replayer) probeStore(dir string, maxBytes int64, payload []byte, rounds int) error {
	st, err := artifact.Open(dir, maxBytes)
	if err != nil {
		return err
	}
	rp.req++
	for i := 0; ; i++ {
		if _, _, _, _, ev := st.Stats(); ev > 0 {
			break
		}
		if err := st.Put("trace", fmt.Sprintf("fill-%d", i), payload); err != nil {
			return err
		}
	}
	for i := 0; i < rounds; i++ {
		if err := rp.step("artifact.Store.Put", 0, func() error {
			return st.Put("trace", fmt.Sprintf("probe-%d", i), payload)
		}); err != nil {
			return err
		}
	}
	return nil
}

// probeLookup times experiments.LookupAnalysis for each key, which st
// must hold.
func (rp *replayer) probeLookup(st *artifact.Store, keys []lookupKey) error {
	for _, k := range keys {
		rp.req++
		if err := rp.step("experiments.LookupAnalysis", 0, func() error {
			if _, ok := experiments.LookupAnalysis(st, k.contentID, k.n, iw.DefaultWindows(), k.scfg); !ok {
				return fmt.Errorf("no stored analysis for %s", k.contentID)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// lookupKey names one stored analysis the way LookupAnalysis takes it.
type lookupKey struct {
	contentID string
	n         int
	scfg      stats.Config
}

// String is the artifact key the daemon stores the analysis under.
func (k lookupKey) String() string {
	return experiments.AnalysisKey(k.contentID, iw.DefaultWindows(), k.scfg)
}

// storeAnalysis persists a replayed analysis as the daemon does.
func storeAnalysis(st *artifact.Store, r replayed) error {
	b, err := artifact.EncodeGob(r.an)
	if err != nil {
		return err
	}
	return st.Put("analysis", r.key.String(), b)
}

// traceBytes is the serialized (bench, n, seed 1) trace: the payload size
// the daemon's store writes for every cold request.
func (rp *replayer) traceBytes(bench string, n int) ([]byte, error) {
	t, err := rp.trace(0, bench, n, 1)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, t); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the index). Each experiment is a
// function returning a typed result with a Render method that prints the
// same rows or series the paper reports; cmd/experiments exposes them on
// the command line and bench_test.go exposes them as benchmarks.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"fomodel/internal/artifact"
	"fomodel/internal/core"
	"fomodel/internal/flight"
	"fomodel/internal/iw"
	"fomodel/internal/metrics"
	"fomodel/internal/stats"
	"fomodel/internal/trace"
	"fomodel/internal/uarch"
	"fomodel/internal/workload"
)

// Suite owns the shared experiment inputs: the benchmark list, trace
// length, seed, and the baseline machine. It is also the one owner of
// workload data: decoded traces, analysis bundles and classification
// preps live in its bounded, content-keyed flight caches, which every
// surface (experiments, sweeps, the daemon's predicts at any length and
// seed) reads through Trace and Analyze. The caches are safe for
// concurrent use and single-flight: concurrent requests for the same
// content block on one computation and share its result.
type Suite struct {
	// N is the dynamic instruction count per workload.
	N int
	// Seed feeds the workload generators.
	Seed uint64
	// Names lists the benchmarks, in report order.
	Names []string
	// Machine is the modeled baseline machine: ModelMachine(Sim), which
	// NewSuite sets. A caller that changes Sim sets it again.
	Machine core.Machine
	// Sim is the baseline simulator configuration, the one description
	// of the suite's machine.
	Sim uarch.Config
	// Workers bounds the concurrency of the suite's parallel helpers
	// (MapWorkloads and EachWorkload's cache warm-up). Zero means
	// DefaultWorkers; one forces sequential execution. Results are
	// deterministic at any setting.
	Workers int
	// Store, when non-nil, persists the expensive per-benchmark prep
	// products (traces, analyses, classification preps) across
	// processes; see internal/artifact. Set it before the first
	// Workload call — it is read without synchronization.
	Store *artifact.Store
	// Timings, when non-nil, receives one "workload" sample per analysis
	// bundle the analysis cache missed on.
	Timings *Timings
	// Lookup, when non-nil, resolves names that are not built-in
	// profiles to registered custom profiles plus their content hash
	// (typically registry.Snapshot). Set it before the first Workload
	// call — it is read without synchronization.
	Lookup func(name string) (workload.Profile, string, bool)

	// traces holds decoded traces by content ID; evicting one releases
	// its prep-cache entries. It holds only traces that are read more
	// than once: those a caller of Trace asked for, and those a second
	// analysis of one content needed. seen holds the content IDs whose
	// trace an analysis has needed, at the trace cache's capacity.
	// analyses holds analysis bundles by AnalysisKey.
	traces   *flight.Cache[string, *trace.Trace]
	seen     *flight.Cache[string, struct{}]
	analyses *flight.Cache[string, *AnalysisArtifact]
	// preps memoizes the simulator's classification pass across configs
	// (see uarch.PrepCache); multi-config studies share one functional
	// pass per distinct classification key.
	preps *uarch.PrepCache
	// workloadComputes (analysis-cache misses) and simRuns count the
	// suite's two expensive operations (see Counters). They use the
	// shared metrics counter type so the CLI's -timing report and the
	// daemon's /metrics endpoint read the same source.
	workloadComputes metrics.Counter
	simRuns          metrics.Counter
}

// ErrWorkloadChanged fails a trace load for a registered workload whose
// name no longer resolves to the content hash its Source names: it was
// re-registered or deleted after the caller resolved it, so there is
// nothing to load that the caller's key would describe.
var ErrWorkloadChanged = errors.New("workload was re-registered or deleted during the request; retry")

// Source names one trace by content: a benchmark or registered workload
// name at one length and seed, with the registered profile's content
// hash ("" for a built-in) pinned when the caller resolved the name.
type Source struct {
	Name    string
	N       int
	Seed    uint64
	Content string
}

// ContentID is the identity every cache and artifact keys src by: the
// classic recipe for a built-in, the name-free content hash plus recipe
// for a registered profile, so two names with identical content share
// one trace and one analysis.
func (src Source) ContentID() string {
	if src.Content == "" {
		return workload.ContentID(src.Name, src.N, src.Seed)
	}
	return workload.CustomContentID(src.Content, src.N, src.Seed)
}

// Workload bundles one benchmark's trace, its analysis (whose Points,
// Law, Summary and Estimate are promoted), and the model inputs derived
// from it for the suite's machine. src and scfg name the trace and the
// analysis configuration, so Compare can tell whether a machine point
// shares the analysis.
type Workload struct {
	Name  string
	Trace *trace.Trace
	*AnalysisArtifact
	Inputs core.Inputs

	src  Source
	scfg stats.Config
}

// NewSuite returns a Suite over all twelve benchmarks with the paper's
// baseline machine. n is the per-benchmark dynamic instruction count
// (500k gives stable statistics; the unit tests use less). Its caches
// hold 64 traces and 128 analyses, the daemon's defaults.
func NewSuite(n int, seed uint64) *Suite {
	sim := uarch.DefaultConfig()
	s := &Suite{
		N:       n,
		Seed:    seed,
		Names:   workload.Names(),
		Machine: ModelMachine(sim),
		Sim:     sim,
		preps:   uarch.NewPrepCache(),
	}
	s.SetCacheEntries(64, 128)
	return s
}

// SetCacheEntries bounds the trace and analysis caches, replacing them
// empty. Call before the first Workload, Trace or Analyze call.
func (s *Suite) SetCacheEntries(traces, analyses int) {
	// The evicted trace is about to become unreachable, so the prep
	// entries keyed to it could never be hit again.
	s.traces = flight.New(traces, func(_ string, t *trace.Trace) { s.preps.Forget(t) })
	s.seen = flight.New[string, struct{}](traces, nil)
	s.analyses = flight.New[string, *AnalysisArtifact](analyses, nil)
}

// Caches exposes the trace and analysis caches for their hit, miss,
// eviction and entry counters.
func (s *Suite) Caches() (*flight.Cache[string, *trace.Trace], *flight.Cache[string, *AnalysisArtifact]) {
	return s.traces, s.analyses
}

// workers resolves the suite's effective pool size.
func (s *Suite) workers() int { return normalizeWorkers(s.Workers) }

// Counters reports how many workload analyses and detailed-simulator runs
// the suite has performed — the two expensive operations worth watching
// when tuning a parallel run. Safe for concurrent use.
func (s *Suite) Counters() (workloads, simulations int64) {
	return s.workloadComputes.Load(), s.simRuns.Load()
}

// PrepCounters reports the classification cache's hit/miss counts: how
// many simulator runs reused a cached functional pass versus paying for
// one. Safe for concurrent use.
func (s *Suite) PrepCounters() (hits, misses int64) {
	return s.preps.Stats()
}

// Preps exposes the suite's classification cache for its hit/miss and
// eviction counters.
func (s *Suite) Preps() *uarch.PrepCache { return s.preps }

// SetStore points both the suite's workload pipeline and its
// classification cache at the persistent artifact store. Call before the
// first Workload or Simulate call.
func (s *Suite) SetStore(st *artifact.Store) {
	s.Store = st
	s.preps.SetStore(st)
}

// CounterSources exposes the live workload-analysis and simulator-run
// counters for metrics exporters; the values always match Counters.
func (s *Suite) CounterSources() (workloads, simulations *metrics.Counter) {
	return &s.workloadComputes, &s.simRuns
}

// Workload returns name's analysis bundle at the suite's length and
// seed. The name resolves to a content ID (a built-in by its recipe, a
// registered name through Lookup by its content hash), and the trace and
// the analysis are read from the suite's content-keyed caches, computed
// on a miss. Concurrent callers for the same content share one
// computation; a failure is not retained, so the next call retries.
func (s *Suite) Workload(name string) (*Workload, error) {
	content, err := s.content(name)
	if err != nil {
		return nil, err
	}
	src := Source{Name: name, N: s.N, Seed: s.Seed, Content: content}
	// The trace first, so that an analysis miss finds it cached.
	t, err := s.Trace(src)
	if err != nil {
		return nil, err
	}
	scfg := s.Sim.Analysis()
	an, err := s.Analyze(src, scfg)
	if err != nil {
		return nil, err
	}
	inputs, err := core.InputsFromCurve(an.Law, an.Points, s.Machine.WindowSize, an.Summary)
	if err != nil {
		return nil, err
	}
	return &Workload{Name: name, Trace: t, AnalysisArtifact: an, Inputs: inputs, src: src, scfg: scfg}, nil
}

// content resolves a workload name: "" for a built-in, the content hash
// of a name Lookup knows, and workload.ByName's error otherwise. A nil
// suite resolves built-ins only. The built-in test builds no error, so
// only a name that is neither pays for one.
func (s *Suite) content(name string) (string, error) {
	if workload.IsBuiltin(name) {
		return "", nil
	}
	if s != nil && s.Lookup != nil {
		if _, hash, ok := s.Lookup(name); ok {
			return hash, nil
		}
	}
	_, err := workload.ByName(name)
	return "", err
}

// Trace returns src's trace from the trace cache, loading it from the
// store or generating it on a miss; a generated trace is written to the
// store. It is the path of every caller that reads the trace itself (to
// simulate it, say), so each trace it returns stays cached, and stored,
// for the next such read.
func (s *Suite) Trace(src Source) (*trace.Trace, error) {
	t, _, err := s.traces.Do(src.ContentID(), func() (*trace.Trace, error) { return s.loadTrace(src, true) })
	return t, err
}

// loadTrace loads src's trace from the store or generates it, writing a
// generated trace to the store when persist is set. A registered profile
// is read through Lookup only to generate its trace, and when the name
// no longer resolves to src.Content, loadTrace fails with
// ErrWorkloadChanged.
func (s *Suite) loadTrace(src Source, persist bool) (*trace.Trace, error) {
	if src.Content == "" {
		return LoadOrGenerateTrace(s.Store, src.Name, src.N, src.Seed, persist)
	}
	prof, hash, ok := s.Lookup(src.Name)
	if !ok || hash != src.Content {
		return nil, ErrWorkloadChanged
	}
	return LoadOrGenerateProfileTrace(s.Store, prof, src.N, src.Seed, persist)
}

// Analyze returns src's analysis bundle under scfg from the analysis
// cache. A miss reads the store first, without materializing the trace
// (a model-only caller needs the bundle, not the 24-bytes-per-
// instruction trace), and only then computes the bundle from the trace
// and stores it, without a second read of the same key. The trace is
// cached, and persisted, only when it will be read again: a caller that
// needs it calls Trace first, and the second analysis of one content
// (another ROB size, say) goes through Trace too. The first analysis of
// a content uses a cached or in-flight trace when there is one, and
// otherwise a transient trace that it neither caches nor persists.
func (s *Suite) Analyze(src Source, scfg stats.Config) (*AnalysisArtifact, error) {
	id, windows := src.ContentID(), iw.DefaultWindows()
	an, _, err := s.analyses.Do(AnalysisKey(id, windows, scfg), func() (*AnalysisArtifact, error) {
		s.workloadComputes.Inc()
		start := time.Now()
		defer func() { s.Timings.Record("workload", src.Name, time.Since(start)) }()
		if a, ok := LookupAnalysis(s.Store, id, src.N, windows, scfg); ok {
			return a, nil
		}
		t, err := s.analysisTrace(src)
		if err != nil {
			return nil, err
		}
		return AnalyzeAndStore(s.Store, t, windows, scfg)
	})
	return an, err
}

// analysisTrace returns the trace an analysis miss computes from: through
// Trace when an earlier analysis needed this content's trace too, else a
// cached or in-flight copy, else a transient one. Each call counts one
// trace-cache hit or miss.
func (s *Suite) analysisTrace(src Source) (*trace.Trace, error) {
	id := src.ContentID()
	if _, again, _ := s.seen.Do(id, func() (struct{}, error) { return struct{}{}, nil }); again {
		return s.Trace(src)
	}
	if t, ok := s.traces.Get(id); ok {
		return t, nil
	}
	return s.loadTrace(src, false)
}

// Warm computes any uncached workload analyses concurrently, bounded by
// Workers. A computation error is not retained: the failing workload
// computes again, and fails in report order, when it is next requested
// — so Warm itself never fails and is safe to use as a pure prefetch.
// A panic while resolving a workload is a bug and is re-raised, not
// swallowed; one inside a cache computation arrives as that workload's
// error.
func (s *Suite) Warm() {
	workers := s.workers()
	if workers <= 1 || len(s.Names) <= 1 {
		return
	}
	// compute returns no error, so RunOrdered fails only when guard has
	// turned a panic into a *PanicError.
	if err := RunOrdered(workers, len(s.Names), func(i int) (struct{}, error) {
		_, _ = s.Workload(s.Names[i])
		return struct{}{}, nil
	}, nil); err != nil {
		panic(err)
	}
}

// EachWorkload runs fn for every benchmark, in report order, stopping at
// the first error. The workload analyses are warmed concurrently (bounded
// by Workers), but fn always runs sequentially on the calling goroutine,
// so its side effects need no synchronization and keep report order.
// Experiments whose per-benchmark work is itself expensive should use
// MapWorkloads instead, which also fans fn out.
func (s *Suite) EachWorkload(fn func(*Workload) error) error {
	s.Warm()
	for _, name := range s.Names {
		w, err := s.Workload(name)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", name, err)
		}
		if err := fn(w); err != nil {
			return fmt.Errorf("experiments: %s: %w", name, err)
		}
	}
	return nil
}

// Simulate runs the detailed simulator on w with the given ideal toggles,
// starting from the suite's baseline configuration. Runs go through the
// suite's classification cache: configs that differ only in timing-side
// parameters (widths, depths, window/ROB sizes, latencies, the Ideal*
// toggles) share one functional classification pass per benchmark.
func (s *Suite) Simulate(w *Workload, mutate func(*uarch.Config)) (*uarch.Result, error) {
	cfg := s.Sim
	if mutate != nil {
		mutate(&cfg)
	}
	return s.SimulateTrace(w.Trace, cfg)
}

// SimulateTrace runs the detailed simulator on t with cfg through the
// suite's classification cache. Every simulator run the suite (or the
// daemon serving from it) makes goes through here, so the simulator-run
// counter counts each one.
func (s *Suite) SimulateTrace(t *trace.Trace, cfg uarch.Config) (*uarch.Result, error) {
	s.simRuns.Inc()
	return s.preps.Simulate(t, cfg)
}

// Registry maps experiment names ("fig2", "table1", …) to runners that
// produce renderable results.
type Registry map[string]func(context.Context, *Suite) (Renderable, error)

// Renderable is a computed experiment result that can print itself as the
// paper-style table or series.
type Renderable interface {
	Render() string
}

// DefaultRegistry returns every experiment keyed by its paper label.
func DefaultRegistry() Registry {
	return Registry{
		"fig2":          func(_ context.Context, s *Suite) (Renderable, error) { return Figure2(s) },
		"fig4":          func(_ context.Context, s *Suite) (Renderable, error) { return Figure4(s) },
		"table1":        func(_ context.Context, s *Suite) (Renderable, error) { return Table1(s) },
		"fig5":          func(_ context.Context, s *Suite) (Renderable, error) { return Figure5(s) },
		"fig6":          func(_ context.Context, s *Suite) (Renderable, error) { return Figure6(s) },
		"fig7":          func(_ context.Context, s *Suite) (Renderable, error) { return Figure7(s) },
		"fig8":          func(_ context.Context, s *Suite) (Renderable, error) { return Figure8(s) },
		"fig9":          func(_ context.Context, s *Suite) (Renderable, error) { return Figure9(s) },
		"fig10":         func(_ context.Context, s *Suite) (Renderable, error) { return Figure10(s) },
		"fig11":         func(_ context.Context, s *Suite) (Renderable, error) { return Figure11(s) },
		"fig12":         func(_ context.Context, s *Suite) (Renderable, error) { return Figure12(s) },
		"fig13":         func(_ context.Context, s *Suite) (Renderable, error) { return Figure13(s) },
		"fig14":         func(_ context.Context, s *Suite) (Renderable, error) { return Figure14(s) },
		"fig15":         func(_ context.Context, s *Suite) (Renderable, error) { return Figure15(s) },
		"fig16":         func(_ context.Context, s *Suite) (Renderable, error) { return Figure16(s) },
		"fig17":         func(_ context.Context, s *Suite) (Renderable, error) { return Figure17(s) },
		"fig18":         func(_ context.Context, s *Suite) (Renderable, error) { return Figure18(s) },
		"fig19":         func(_ context.Context, s *Suite) (Renderable, error) { return Figure19(s) },
		"ext-fu":        func(_ context.Context, s *Suite) (Renderable, error) { return ExtensionFU(s) },
		"ext-fetchbuf":  func(_ context.Context, s *Suite) (Renderable, error) { return ExtensionFetchBuffer(s) },
		"ext-tlb":       func(_ context.Context, s *Suite) (Renderable, error) { return ExtensionTLB(s) },
		"ext-cluster":   func(_ context.Context, s *Suite) (Renderable, error) { return ExtensionClusters(s) },
		"predictors":    func(_ context.Context, s *Suite) (Renderable, error) { return PredictorStudy(s) },
		"sweep-window":  func(ctx context.Context, s *Suite) (Renderable, error) { return WindowSweep(ctx, s) },
		"sweep-rob":     func(ctx context.Context, s *Suite) (Renderable, error) { return ROBSweep(ctx, s) },
		"statsim":       func(_ context.Context, s *Suite) (Renderable, error) { return StatSimStudy(s) },
		"refine-branch": func(_ context.Context, s *Suite) (Renderable, error) { return BranchBurstRefinement(s) },
		"methods":       func(_ context.Context, s *Suite) (Renderable, error) { return MethodologyComparison(s) },
		"seeds":         func(_ context.Context, s *Suite) (Renderable, error) { return SeedRobustness(s) },
		"inorder":       func(_ context.Context, s *Suite) (Renderable, error) { return InOrderBaseline(s) },
		"littleslaw":    func(_ context.Context, s *Suite) (Renderable, error) { return LittlesLaw(s) },
	}
}

// Labels returns the registry's experiment names, sorted.
func (r Registry) Labels() []string {
	labels := make([]string, 0, len(r))
	for l := range r {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}

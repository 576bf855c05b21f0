// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the index). Each experiment is a
// function returning a typed result with a Render method that prints the
// same rows or series the paper reports; cmd/experiments exposes them on
// the command line and bench_test.go exposes them as benchmarks.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"fomodel/internal/artifact"
	"fomodel/internal/core"
	"fomodel/internal/iw"
	"fomodel/internal/metrics"
	"fomodel/internal/stats"
	"fomodel/internal/trace"
	"fomodel/internal/uarch"
	"fomodel/internal/workload"
)

// Suite owns the shared experiment inputs: the benchmark list, trace
// length, seed, and the baseline machine. Workload analyses are computed
// once and cached; the cache is safe for concurrent use and single-flight
// — concurrent requests for the same benchmark block on one computation
// and share its result.
type Suite struct {
	// N is the dynamic instruction count per workload.
	N int
	// Seed feeds the workload generators.
	Seed uint64
	// Names lists the benchmarks, in report order.
	Names []string
	// Machine is the modeled baseline machine.
	Machine core.Machine
	// Sim is the baseline simulator configuration; its parameters mirror
	// Machine.
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
	// Timings, when non-nil, receives one "workload" sample per computed
	// analysis bundle.
	Timings *Timings
	// Lookup, when non-nil, resolves names that are not built-in
	// profiles to registered custom profiles plus their content hash
	// (typically registry.Snapshot). Set it before the first Workload
	// call — it is read without synchronization.
	Lookup func(name string) (workload.Profile, string, bool)

	mu    sync.Mutex
	cache map[string]*workloadEntry
	// preps memoizes the simulator's classification pass across configs
	// (see uarch.PrepCache); multi-config studies share one functional
	// pass per distinct classification key.
	preps *uarch.PrepCache
	// workloadComputes and simRuns count the suite's two expensive
	// operations (see Counters). They use the shared metrics counter type
	// so the CLI's -timing report and the daemon's /metrics endpoint read
	// the same source.
	workloadComputes metrics.Counter
	simRuns          metrics.Counter
}

// workloadEntry is one single-flight cache slot: the first caller runs
// the computation inside once, every later or concurrent caller blocks on
// it and shares the outcome. Errors are cached too — the computation is
// deterministic, so retrying cannot change the result.
type workloadEntry struct {
	once sync.Once
	w    *Workload
	err  error
}

// Workload bundles one benchmark's trace and every derived analysis the
// experiments consume.
type Workload struct {
	Name    string
	Trace   *trace.Trace
	Points  []iw.Point
	Law     iw.PowerLaw
	Summary *stats.Summary
	Inputs  core.Inputs
}

// NewSuite returns a Suite over all twelve benchmarks with the paper's
// baseline machine. n is the per-benchmark dynamic instruction count
// (500k gives stable statistics; the unit tests use less).
func NewSuite(n int, seed uint64) *Suite {
	m := core.DefaultMachine()
	sim := uarch.DefaultConfig()
	return &Suite{
		N:       n,
		Seed:    seed,
		Names:   workload.Names(),
		Machine: m,
		Sim:     sim,
		cache:   make(map[string]*workloadEntry),
		preps:   uarch.NewPrepCache(),
	}
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
// one. Safe for concurrent use; zero when the suite was built without
// NewSuite (caching disabled).
func (s *Suite) PrepCounters() (hits, misses int64) {
	return s.preps.Stats()
}

// Preps exposes the suite's classification cache: its hit/miss and
// eviction counters, and Forget for a trace the caller is dropping.
// Nil when the suite was built without NewSuite.
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

// Workload returns the cached analysis bundle for name, computing it on
// first use. Concurrent callers for the same name block on a single
// computation and share its result. Names that are not built-in
// profiles resolve through Lookup (registered custom workloads); their
// cache slots are keyed by name plus content hash, so re-registering a
// name with different content computes fresh instead of serving the
// old definition.
func (s *Suite) Workload(name string) (*Workload, error) {
	key := name
	var custom *workload.Profile
	if _, err := workload.ByName(name); err != nil && s.Lookup != nil {
		if prof, hash, ok := s.Lookup(name); ok {
			custom = &prof
			// NUL cannot occur in a valid profile name, so custom slots
			// can never collide with built-in ones.
			key = name + "\x00" + hash
		}
	}
	s.mu.Lock()
	e, ok := s.cache[key]
	if !ok {
		e = &workloadEntry{}
		s.cache[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		s.workloadComputes.Inc()
		start := time.Now()
		if custom != nil {
			e.w, e.err = s.computeCustomWorkload(*custom)
		} else {
			e.w, e.err = s.computeWorkload(name)
		}
		s.Timings.Record("workload", name, time.Since(start))
	})
	return e.w, e.err
}

// Forget drops name's cached analysis bundles — both the built-in slot
// and any content-hashed custom slots — so a deleted or re-registered
// workload cannot be served from the suite cache. In-flight
// computations complete on their orphaned entries and are discarded.
func (s *Suite) Forget(name string) {
	prefix := name + "\x00"
	s.mu.Lock()
	defer s.mu.Unlock()
	for key := range s.cache {
		if key == name || strings.HasPrefix(key, prefix) {
			delete(s.cache, key)
		}
	}
}

// KnowsWorkload reports whether name resolves to a built-in profile or
// a registered custom workload — the validation predicate for requests
// that reference workloads by name.
func (s *Suite) KnowsWorkload(name string) bool {
	if _, err := workload.ByName(name); err == nil {
		return true
	}
	if s != nil && s.Lookup != nil {
		if _, _, ok := s.Lookup(name); ok {
			return true
		}
	}
	return false
}

// computeWorkload builds the full analysis bundle for one benchmark,
// serving the trace and the analysis pass from the artifact store when
// one is configured and warm.
func (s *Suite) computeWorkload(name string) (*Workload, error) {
	t, err := LoadOrGenerateTrace(s.Store, name, s.N, s.Seed, true)
	if err != nil {
		return nil, err
	}
	return s.analyzeTrace(name, t)
}

// computeCustomWorkload is computeWorkload for a registered profile:
// the trace comes from the profile's content-keyed artifact slot, and
// everything downstream is identical to a built-in.
func (s *Suite) computeCustomWorkload(prof workload.Profile) (*Workload, error) {
	t, err := LoadOrGenerateProfileTrace(s.Store, prof, s.N, s.Seed, true)
	if err != nil {
		return nil, err
	}
	return s.analyzeTrace(prof.Name, t)
}

// statsConfig is the functional-analysis configuration matching the
// suite's simulator: its hierarchy, predictor, latencies and warmup,
// with the model machine's ROB for the miss grouping. Experiments that
// re-analyze under another predictor or a TLB start from it.
func (s *Suite) statsConfig() stats.Config {
	scfg := stats.DefaultConfig()
	scfg.Hierarchy = s.Sim.Hierarchy
	scfg.PredictorBits = s.Sim.PredictorBits
	scfg.Latencies = s.Sim.Latencies
	scfg.ROBSize = s.Machine.ROBSize
	scfg.Warmup = s.Sim.Warmup
	return scfg
}

// Analysis returns the analysis bundle of w, one of the suite's
// workloads, and the AnalysisKey it was computed under. A caller whose
// own key is the same needs no analysis of its own.
func (s *Suite) Analysis(w *Workload) (*AnalysisArtifact, string) {
	an := &AnalysisArtifact{Points: w.Points, Law: w.Law, Summary: w.Summary}
	return an, AnalysisKey(w.Trace.ContentID, iw.DefaultWindows(), s.statsConfig())
}

// analyzeTrace runs the shared analysis tail: IW characteristic,
// power-law fit, miss statistics, and model inputs.
func (s *Suite) analyzeTrace(name string, t *trace.Trace) (*Workload, error) {
	an, err := ComputeAnalysis(s.Store, t, iw.DefaultWindows(), s.statsConfig())
	if err != nil {
		return nil, err
	}
	inputs, err := core.InputsFromCurve(an.Law, an.Points, s.Machine.WindowSize, an.Summary)
	if err != nil {
		return nil, err
	}
	return &Workload{
		Name:    name,
		Trace:   t,
		Points:  an.Points,
		Law:     an.Law,
		Summary: an.Summary,
		Inputs:  inputs,
	}, nil
}

// Warm computes any uncached workload analyses concurrently, bounded by
// Workers. Computation errors stay in the cache and resurface, in report
// order, when the failing workload is next requested — so Warm itself
// never fails and is safe to use as a pure prefetch.
func (s *Suite) Warm() {
	workers := s.workers()
	if workers <= 1 || len(s.Names) <= 1 {
		return
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for _, name := range s.Names {
		wg.Add(1)
		sem <- struct{}{}
		go func(name string) {
			defer wg.Done()
			defer func() { <-sem }()
			_, _ = s.Workload(name)
		}(name)
	}
	wg.Wait()
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

// Estimate runs the analytical model on w with the paper's default
// options.
func (s *Suite) Estimate(w *Workload) (core.Estimate, error) {
	return s.Machine.Estimate(w.Inputs, core.Options{})
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

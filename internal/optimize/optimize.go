// Package optimize searches the modeled machine design space under an
// evaluation budget. The paper's point is that a first-order model is
// cheap enough to *search* with, not just evaluate; this package is that
// search: a deterministic seeded coarse grid over per-parameter bounds,
// followed by local pattern-search refinement around the incumbent (or
// the current Pareto frontier), every candidate scored through an
// evaluator callback the caller supplies. The serving daemon plugs in
// the model half of its /v1/predict path, run on one cached analysis per
// mix workload.
//
// Determinism is a contract, not an accident: for a fixed spec (seed
// included) the search visits the same candidates in the same order and
// produces byte-identical results at any worker count. Candidate
// enumeration iterates the fixed axis order (never a map), the only
// randomness is an explicitly seeded PCG used to subsample an oversized
// coarse grid, and parallel evaluation fans out through
// experiments.RunOrdered, which delivers results strictly in index
// order. The package is covered by fomodelvet's detrand analyzer.
package optimize

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"fomodel/internal/experiments"
	"fomodel/internal/reqkey"
	"fomodel/internal/rng"
	"fomodel/internal/uarch"
)

// Spec-level caps, keeping one optimize request's cost bounded.
const (
	// maxBudget caps candidate evaluations per search.
	maxBudget = 4096
	// maxMixSize caps the workload mix.
	maxMixSize = 8
	// maxAxisValues caps one axis's lattice cardinality.
	maxAxisValues = 256
	// maxGridSize caps the full lattice cardinality (all axes).
	maxGridSize = 1 << 20
	// maxGridLevels caps the coarse-grid levels per axis.
	maxGridLevels = 16
)

// Config is one fully specified candidate: the searchable projection of
// the machine. Every field is always explicit (no omitempty) so a
// candidate's JSON shape — and therefore every derived cache key and
// streamed row — is fixed.
type Config struct {
	Width       int `json:"width"`
	Depth       int `json:"depth"`
	Window      int `json:"window"`
	ROB         int `json:"rob"`
	Clusters    int `json:"clusters"`
	FetchBuffer int `json:"fetch_buffer"`
}

// Baseline is the paper's default machine projected onto the searchable
// axes; unbounded axes hold these values in every candidate.
func Baseline() Config {
	return Config{Width: 4, Depth: 5, Window: 48, ROB: 128, Clusters: 1, FetchBuffer: 0}
}

// axisNames lists the searchable parameters in canonical search order.
// Every enumeration in this package walks this slice — never the Bounds
// map — so candidate order is deterministic by construction.
var axisNames = []string{"width", "depth", "window", "rob", "clusters", "fetch_buffer"}

// axisFloor is the smallest legal bound minimum per axis.
var axisFloor = map[string]int{
	"width": 1, "depth": 1, "window": 1, "rob": 1, "clusters": 1, "fetch_buffer": 0,
}

// axisCeil is the largest legal bound maximum per axis: the detailed
// simulator's configuration bounds (uarch.Config.Validate), which every
// candidate must pass. Clusters must divide the width, so the width's
// bound caps them too.
var axisCeil = map[string]int{
	"width": uarch.MaxWidth, "depth": uarch.MaxFrontEndDepth, "window": uarch.MaxWindowSize,
	"rob": uarch.MaxROBSize, "clusters": uarch.MaxWidth, "fetch_buffer": uarch.MaxFetchBufferSize,
}

// Params returns the supported bound-parameter names, sorted. Error
// messages enumerate exactly this list, so their wording is identical
// across runs.
func Params() []string {
	params := make([]string, len(axisNames))
	copy(params, axisNames)
	sort.Strings(params)
	return params
}

// axis reads one named parameter from the config.
func (c Config) axis(name string) int {
	switch name {
	case "width":
		return c.Width
	case "depth":
		return c.Depth
	case "window":
		return c.Window
	case "rob":
		return c.ROB
	case "clusters":
		return c.Clusters
	case "fetch_buffer":
		return c.FetchBuffer
	}
	panic("optimize: unknown axis " + name)
}

// setAxis writes one named parameter.
func (c *Config) setAxis(name string, v int) {
	switch name {
	case "width":
		c.Width = v
	case "depth":
		c.Depth = v
	case "window":
		c.Window = v
	case "rob":
		c.ROB = v
	case "clusters":
		c.Clusters = v
	case "fetch_buffer":
		c.FetchBuffer = v
	default:
		panic("optimize: unknown axis " + name)
	}
}

// valid reports whether the candidate is structurally evaluable: the
// detailed-simulator configuration (uarch.Config.Validate) requires
// ROB ≥ window and a cluster count that divides both the width and the
// window, so lattice points violating either rule are skipped without
// consuming budget.
func (c Config) valid() bool {
	return c.ROB >= c.Window && c.Width%c.Clusters == 0 && c.Window%c.Clusters == 0
}

// less orders configs by the canonical axis order; used to restore
// deterministic evaluation order after the seeded subsample shuffle.
func (c Config) less(o Config) bool {
	for _, name := range axisNames {
		if a, b := c.axis(name), o.axis(name); a != b {
			return a < b
		}
	}
	return false
}

// Bound is one parameter's inclusive search range: the lattice
// min, min+step, …, max. Max must be reachable from min by whole steps.
type Bound struct {
	Min int `json:"min"`
	Max int `json:"max"`
	// Step is the lattice stride (default 1).
	Step int `json:"step,omitempty"`
}

// count returns the lattice cardinality (normalized bound).
func (b Bound) count() int { return (b.Max-b.Min)/b.Step + 1 }

// value returns the i-th lattice value (normalized bound).
func (b Bound) value(i int) int { return b.Min + i*b.Step }

// indexOf returns the lattice index of v (normalized bound; v on lattice).
func (b Bound) indexOf(v int) int { return (v - b.Min) / b.Step }

// WorkloadWeight is one mix component: a benchmark and its weight in the
// mix-CPI aggregate (default 1).
type WorkloadWeight struct {
	Bench  string  `json:"bench"`
	Weight float64 `json:"weight,omitempty"`
}

// Objective names. A scalar search minimizes cpi or cpi_depth; a pareto
// search traces the trade-off frontier between two of the named
// objectives (area needs no evaluation, so cpi-vs-area is the classic
// performance/cost frontier).
const (
	// ObjectiveCPI is the weighted mix CPI.
	ObjectiveCPI = "cpi"
	// ObjectiveCPIDepth is the power proxy CPI×depth: deeper pipelines
	// clock higher and burn proportionally more power per instruction.
	ObjectiveCPIDepth = "cpi_depth"
	// ObjectiveArea is the hardware cost proxy
	// width·window + rob + width·depth.
	ObjectiveArea = "area"
	// ObjectivePareto selects the 2-D frontier mode; the pair of
	// objectives comes from Spec.Pareto.
	ObjectivePareto = "pareto"
)

// ScalarObjectives returns the scalar objective names, sorted.
func ScalarObjectives() []string { return []string{ObjectiveCPI, ObjectiveCPIDepth} }

// ParetoObjectives returns the names usable as pareto components, sorted.
func ParetoObjectives() []string { return []string{ObjectiveArea, ObjectiveCPI, ObjectiveCPIDepth} }

// objectiveValue maps one evaluated candidate onto the named objective.
func objectiveValue(name string, cfg Config, cpi float64) float64 {
	switch name {
	case ObjectiveCPI:
		return cpi
	case ObjectiveCPIDepth:
		return cpi * float64(cfg.Depth)
	case ObjectiveArea:
		return float64(cfg.Width*cfg.Window + cfg.ROB + cfg.Width*cfg.Depth)
	}
	panic("optimize: unknown objective " + name)
}

// Spec describes one design-space search. It is the /v1/optimize request
// shape; field defaults are filled by Normalize, and the normalized
// spec's JSON is the canonical cache key the daemon and the fomodelproxy
// router share.
type Spec struct {
	// Title heads the rendered report; empty derives one.
	Title string `json:"title,omitempty"`
	// Workloads is the benchmark mix candidates are scored on.
	Workloads []WorkloadWeight `json:"workloads"`
	// Bounds gives each searched parameter's range; unbounded parameters
	// stay at Baseline. See Params for the names.
	Bounds map[string]Bound `json:"bounds"`
	// Objective is cpi, cpi_depth, or pareto (default cpi).
	Objective string `json:"objective,omitempty"`
	// Pareto names the two frontier objectives when Objective is pareto
	// (default [cpi, area]).
	Pareto []string `json:"pareto,omitempty"`
	// Budget caps candidate evaluations (each costs one model run per
	// mix workload).
	Budget int `json:"budget"`
	// DeadlineMS bounds the search wall-clock server-side when positive;
	// it is enforced by the serving layer through the request context,
	// never inside the (clock-free) search itself.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Seed seeds the coarse-grid subsample (default 1). Same spec, same
	// seed ⇒ same frontier, at any worker count.
	Seed uint64 `json:"seed,omitempty"`
	// Grid is the coarse-grid levels per axis (default 3).
	Grid int `json:"grid,omitempty"`
	// N and TraceSeed override the evaluation traces' length and
	// generation seed; zero takes the server defaults.
	N         int    `json:"n,omitempty"`
	TraceSeed uint64 `json:"trace_seed,omitempty"`
	// TLB adds the default data TLB to every candidate machine.
	TLB bool `json:"tlb,omitempty"`
}

// fillSearchDefaults fills every search-side optional field in place.
// N and TraceSeed are serving-layer defaults and are left to Normalize.
func (s *Spec) fillSearchDefaults() {
	for i := range s.Workloads {
		if s.Workloads[i].Weight == 0 {
			s.Workloads[i].Weight = 1
		}
	}
	for _, name := range axisNames {
		b, ok := s.Bounds[name]
		if !ok {
			continue
		}
		if b.Step == 0 {
			b.Step = 1
			s.Bounds[name] = b
		}
	}
	if s.Objective == "" {
		s.Objective = ObjectiveCPI
	}
	if s.Objective == ObjectivePareto && len(s.Pareto) == 0 {
		s.Pareto = []string{ObjectiveCPI, ObjectiveArea}
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Grid == 0 {
		s.Grid = 3
	}
	if s.Title == "" {
		s.Title = s.defaultTitle()
	}
}

// defaultTitle derives the report title from the (default-filled)
// objective and mix.
func (s Spec) defaultTitle() string {
	benches := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		benches[i] = w.Bench
	}
	over := strings.Join(benches, ", ")
	if s.Objective == ObjectivePareto && len(s.Pareto) == 2 {
		return fmt.Sprintf("pareto %s vs %s over %s", s.Pareto[0], s.Pareto[1], over)
	}
	return fmt.Sprintf("minimize %s over %s", s.Objective, over)
}

// Normalize fills defaults — the search-side ones plus d's N and Seed
// for the evaluation traces — and validates against d.Resolver,
// returning an error fit for a 400 response. It is idempotent and is
// the shared canonicalization step: the daemon normalizes before keying
// its response cache, and the fomodelproxy router normalizes the same
// way before hashing onto the ring.
func (s *Spec) Normalize(d reqkey.Defaults) error {
	s.fillSearchDefaults()
	if s.N == 0 {
		s.N = d.N
	}
	if s.TraceSeed == 0 {
		s.TraceSeed = d.Seed
	}
	return s.Validate(d.Resolver)
}

// Validate reports the first structural problem with the spec. A mix
// entry's bench must be built-in or registered with res (see
// reqkey.Content); a nil res accepts built-ins only. Every enumeration
// in an error message is sorted, so the wording never depends on map
// iteration order.
func (s Spec) Validate(res reqkey.Resolver) error {
	if len(s.Workloads) == 0 {
		return fmt.Errorf("optimize: spec needs at least one workload")
	}
	if len(s.Workloads) > maxMixSize {
		return fmt.Errorf("optimize: workload mix of %d exceeds the %d-workload limit", len(s.Workloads), maxMixSize)
	}
	seen := make(map[string]bool, len(s.Workloads))
	for _, w := range s.Workloads {
		if _, err := reqkey.Content(res, w.Bench); err != nil {
			return err
		}
		if seen[w.Bench] {
			return fmt.Errorf("optimize: workload %q listed twice in the mix", w.Bench)
		}
		seen[w.Bench] = true
		if w.Weight < 0 {
			return fmt.Errorf("optimize: workload %q has negative weight %g", w.Bench, w.Weight)
		}
	}
	if len(s.Bounds) == 0 {
		return fmt.Errorf("optimize: spec needs at least one parameter bound")
	}
	keys := make([]string, 0, len(s.Bounds))
	for k := range s.Bounds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		floor, ok := axisFloor[k]
		if !ok {
			return fmt.Errorf("optimize: unknown parameter %q (known: %s)", k, strings.Join(Params(), ", "))
		}
		b := s.Bounds[k]
		step := b.Step
		if step == 0 {
			step = 1
		}
		if step < 1 {
			return fmt.Errorf("optimize: %s step %d < 1", k, b.Step)
		}
		if b.Min < floor {
			return fmt.Errorf("optimize: %s bound min %d below the parameter minimum %d", k, b.Min, floor)
		}
		if b.Max < b.Min {
			return fmt.Errorf("optimize: %s bound max %d below min %d", k, b.Max, b.Min)
		}
		if b.Max > axisCeil[k] {
			return fmt.Errorf("optimize: %s bound max %d above the parameter maximum %d", k, b.Max, axisCeil[k])
		}
		if (b.Max-b.Min)%step != 0 {
			return fmt.Errorf("optimize: %s bound max %d not reachable from min %d by step %d", k, b.Max, b.Min, step)
		}
		if n := (b.Max-b.Min)/step + 1; n > maxAxisValues {
			return fmt.Errorf("optimize: %s lattice of %d values exceeds the %d-value limit", k, n, maxAxisValues)
		}
	}
	total, valid := s.gridCounts()
	if total > maxGridSize {
		return fmt.Errorf("optimize: full lattice of %d points exceeds the %d-point limit", total, maxGridSize)
	}
	if valid == 0 {
		return fmt.Errorf("optimize: no valid configuration in bounds " +
			"(every lattice point has rob < window or a cluster count that does not divide its width and window)")
	}
	if s.Budget < 1 {
		return fmt.Errorf("optimize: budget %d < 1", s.Budget)
	}
	if s.Budget > maxBudget {
		return fmt.Errorf("optimize: budget %d exceeds the %d-evaluation limit", s.Budget, maxBudget)
	}
	if s.DeadlineMS < 0 {
		return fmt.Errorf("optimize: deadline_ms %d < 0", s.DeadlineMS)
	}
	if s.Grid != 0 && (s.Grid < 2 || s.Grid > maxGridLevels) {
		return fmt.Errorf("optimize: grid levels %d outside [2, %d]", s.Grid, maxGridLevels)
	}
	switch s.Objective {
	case "", ObjectiveCPI, ObjectiveCPIDepth:
		if len(s.Pareto) > 0 {
			return fmt.Errorf("optimize: pareto objectives given but objective is %q", s.Objective)
		}
	case ObjectivePareto:
		if len(s.Pareto) == 0 {
			break // Normalize fills the default pair.
		}
		if len(s.Pareto) != 2 {
			return fmt.Errorf("optimize: pareto needs exactly two objectives, got %d", len(s.Pareto))
		}
		if s.Pareto[0] == s.Pareto[1] {
			return fmt.Errorf("optimize: pareto objectives must differ, got %q twice", s.Pareto[0])
		}
		for _, name := range s.Pareto {
			if name != ObjectiveArea && name != ObjectiveCPI && name != ObjectiveCPIDepth {
				return fmt.Errorf("optimize: unknown pareto objective %q (known: %s)",
					name, strings.Join(ParetoObjectives(), ", "))
			}
		}
	default:
		return fmt.Errorf("optimize: unknown objective %q (known: %s, %s)",
			s.Objective, strings.Join(ScalarObjectives(), ", "), ObjectivePareto)
	}
	return nil
}

// normalizedBound returns the named axis's bound with the step default
// applied, or a single-point bound at the baseline when unbounded.
func (s Spec) normalizedBound(name string) Bound {
	if b, ok := s.Bounds[name]; ok {
		if b.Step == 0 {
			b.Step = 1
		}
		return b
	}
	v := Baseline().axis(name)
	return Bound{Min: v, Max: v, Step: 1}
}

// gridCounts returns the full lattice cardinality and the number of
// structurally valid points on it (Config.valid). Only the width,
// window, rob and clusters axes constrain one another, so the valid
// count is taken over those four, per (window, cluster count) pair,
// and scaled by the rest; it stays cheap even at the lattice-size cap.
func (s Spec) gridCounts() (total, valid int64) {
	total = 1
	for _, name := range axisNames {
		total *= int64(s.normalizedBound(name).count())
	}
	if total > maxGridSize {
		return total, 0
	}
	wb, winb, rb, cb := s.normalizedBound("width"), s.normalizedBound("window"),
		s.normalizedBound("rob"), s.normalizedBound("clusters")
	// robs[i] counts the rob values no smaller than the i-th window.
	robs := make([]int64, winb.count())
	for i := range robs {
		for j := 0; j < rb.count(); j++ {
			if rb.value(j) >= winb.value(i) {
				robs[i]++
			}
		}
	}
	var constrained int64
	for ci := 0; ci < cb.count(); ci++ {
		c := cb.value(ci)
		var widths int64
		for i := 0; i < wb.count(); i++ {
			if wb.value(i)%c == 0 {
				widths++
			}
		}
		for i, n := range robs {
			if winb.value(i)%c == 0 {
				constrained += widths * n
			}
		}
	}
	others := total / int64(wb.count()*winb.count()*rb.count()*cb.count())
	return total, others * constrained
}

// objectiveNames returns the search's objective column names: one for a
// scalar search, two for pareto (normalized spec).
func (s Spec) objectiveNames() []string {
	if s.Objective == ObjectivePareto {
		return s.Pareto
	}
	return []string{s.Objective}
}

// Point is one accepted candidate: an evaluation that improved the
// incumbent (scalar search) or entered the then-current frontier
// (pareto). Points stream as NDJSON rows in discovery order.
type Point struct {
	// Eval is the 1-based evaluation sequence number that produced the
	// point.
	Eval   int     `json:"eval"`
	Config Config  `json:"config"`
	CPI    float64 `json:"cpi"`
	// Objectives holds the objective values, in Spec objective order.
	Objectives []float64 `json:"objectives"`
}

// Result is one completed search: the normalized spec, the improvement
// history, and the final frontier with its cost accounting.
type Result struct {
	Spec Spec `json:"spec"`
	// Points is the improvement history in discovery order — exactly the
	// rows a streamed search emits.
	Points []Point `json:"points"`
	// Frontier is the final non-dominated set, sorted by first objective
	// (a scalar search's frontier is its single best point).
	Frontier []Point `json:"frontier"`
	// Evaluations counts evaluated candidates; never exceeds the budget.
	Evaluations int `json:"evaluations"`
	// Rounds counts refinement batches after the coarse grid.
	Rounds int `json:"rounds"`
	// GridSize is the number of valid points on the full bounds lattice —
	// what exhaustive enumeration would have evaluated.
	GridSize int `json:"grid_size"`
	// Converged reports that refinement ran dry (stride 1, no
	// improvement, no unvisited neighbors) before the budget did.
	Converged bool `json:"converged"`
}

// EvalFunc scores one candidate on one benchmark: the weighted-mix CPI
// aggregation and all objective math live in this package, so an
// evaluator only ever computes a single model CPI.
type EvalFunc func(ctx context.Context, cfg Config, bench string) (float64, error)

// Options tunes one Run call.
type Options struct {
	// Workers bounds the parallel evaluation fan-out
	// (0 = experiments.DefaultWorkers). The result is byte-identical at
	// any worker count.
	Workers int
	// Emit, when non-nil, receives each accepted Point in discovery
	// order, on the calling goroutine; an Emit error aborts the search.
	Emit func(Point) error
	// Resolver, when non-nil, extends the workload universe the
	// internal re-validation accepts beyond the built-in profiles
	// (registered custom workloads). It must match whatever universe
	// the eval function can actually serve.
	Resolver reqkey.Resolver
}

// searcher is one Run invocation's state.
type searcher struct {
	spec    Spec
	eval    EvalFunc
	opts    Options
	res     *Result
	bounds  []searchAxis
	visited map[Config]bool
	// frontier is the live non-dominated set, kept sorted by first
	// objective then config order (scalar searches keep exactly one
	// incumbent).
	frontier  []Point
	weightSum float64
}

// searchAxis is one bounded axis's live search state.
type searchAxis struct {
	name   string
	b      Bound
	coarse []int // coarse-grid lattice indices, ascending
	// stride is the neighborhood radius in lattice steps; 0 for
	// single-value axes (excluded from refinement).
	stride int
}

// Run executes the search: coarse grid, then stride-halving neighborhood
// refinement around the frontier, stopping at convergence, budget
// exhaustion, or ctx cancellation (which aborts with ctx's error).
// The spec's search-side defaults are filled; N and TraceSeed pass
// through to eval as given.
func Run(ctx context.Context, spec Spec, eval EvalFunc, opts Options) (*Result, error) {
	spec.fillSearchDefaults()
	if err := spec.Validate(opts.Resolver); err != nil {
		return nil, err
	}
	_, valid := spec.gridCounts()
	sr := &searcher{
		spec:    spec,
		eval:    eval,
		opts:    opts,
		visited: make(map[Config]bool),
		res: &Result{
			Spec:     spec,
			Points:   []Point{},
			Frontier: []Point{},
			GridSize: int(valid),
		},
	}
	for _, w := range spec.Workloads {
		sr.weightSum += w.Weight
	}
	sr.initAxes()

	if err := sr.coarsePhase(ctx); err != nil {
		return nil, err
	}
	if err := sr.refine(ctx); err != nil {
		return nil, err
	}
	sr.res.Frontier = append(sr.res.Frontier, sr.frontier...)
	return sr.res, nil
}

// initAxes builds the per-axis coarse grids and initial strides.
func (sr *searcher) initAxes() {
	for _, name := range axisNames {
		if _, ok := sr.spec.Bounds[name]; !ok {
			continue
		}
		b := sr.spec.normalizedBound(name)
		ax := searchAxis{name: name, b: b}
		n := b.count()
		levels := sr.spec.Grid
		if n <= levels {
			for i := 0; i < n; i++ {
				ax.coarse = append(ax.coarse, i)
			}
		} else {
			last := -1
			for j := 0; j < levels; j++ {
				idx := j * (n - 1) / (levels - 1)
				if idx != last {
					ax.coarse = append(ax.coarse, idx)
					last = idx
				}
			}
		}
		// The initial refinement radius is half the widest coarse gap:
		// refinement starts where the coarse grid stopped resolving.
		maxGap := 0
		for i := 1; i < len(ax.coarse); i++ {
			if g := ax.coarse[i] - ax.coarse[i-1]; g > maxGap {
				maxGap = g
			}
		}
		if n > 1 {
			ax.stride = maxGap / 2
			if ax.stride < 1 {
				ax.stride = 1
			}
		}
		sr.bounds = append(sr.bounds, ax)
	}
}

// coarsePhase enumerates the coarse grid in canonical order, subsamples
// it with the seeded PCG when it would eat the refinement budget, and
// evaluates the survivors.
func (sr *searcher) coarsePhase(ctx context.Context) error {
	var cands []Config
	idx := make([]int, len(sr.bounds))
	for {
		c := Baseline()
		for i, ax := range sr.bounds {
			c.setAxis(ax.name, ax.b.value(ax.coarse[idx[i]]))
		}
		if !sr.visited[c] {
			sr.visited[c] = true
			if c.valid() {
				cands = append(cands, c)
			}
		}
		// Odometer increment, last axis fastest.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(sr.bounds[i].coarse) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	// Reserve roughly a third of the budget for refinement; a coarse grid
	// bigger than the remainder is subsampled by the seeded PCG, then
	// restored to canonical order so evaluation order stays fixed.
	coarseCap := sr.spec.Budget - sr.spec.Budget/3
	if coarseCap < 1 {
		coarseCap = 1
	}
	if len(cands) > coarseCap {
		p := rng.New(sr.spec.Seed)
		for i := 0; i < coarseCap; i++ {
			j := i + p.Intn(len(cands)-i)
			cands[i], cands[j] = cands[j], cands[i]
		}
		cands = cands[:coarseCap]
		sort.Slice(cands, func(i, j int) bool { return cands[i].less(cands[j]) })
	}
	_, err := sr.evalBatch(ctx, cands)
	return err
}

// refine runs stride-halving neighborhood rounds around the frontier
// until the budget runs out or the search converges.
func (sr *searcher) refine(ctx context.Context) error {
	for sr.res.Evaluations < sr.spec.Budget {
		cands := sr.neighbors()
		if len(cands) == 0 {
			if !sr.halveStrides() {
				sr.res.Converged = true
				return nil
			}
			continue
		}
		if remaining := sr.spec.Budget - sr.res.Evaluations; len(cands) > remaining {
			cands = cands[:remaining]
		}
		sr.res.Rounds++
		improved, err := sr.evalBatch(ctx, cands)
		if err != nil {
			return err
		}
		if !improved && !sr.halveStrides() {
			sr.res.Converged = true
			return nil
		}
	}
	return nil
}

// neighbors proposes the unvisited valid candidates one stride away from
// each frontier point, in deterministic (frontier, axis, direction)
// order, marking everything proposed or rejected as visited.
func (sr *searcher) neighbors() []Config {
	var out []Config
	for _, pt := range sr.frontier {
		for ai := range sr.bounds {
			ax := &sr.bounds[ai]
			if ax.stride == 0 {
				continue
			}
			for _, dir := range [2]int{-1, 1} {
				i := ax.b.indexOf(pt.Config.axis(ax.name)) + dir*ax.stride
				if i < 0 || i >= ax.b.count() {
					continue
				}
				c := pt.Config
				c.setAxis(ax.name, ax.b.value(i))
				if sr.visited[c] {
					continue
				}
				sr.visited[c] = true
				if c.valid() {
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// halveStrides shrinks every refinement radius; it reports false when
// all strides were already at the lattice floor (nothing left to halve).
func (sr *searcher) halveStrides() bool {
	shrunk := false
	for i := range sr.bounds {
		if sr.bounds[i].stride > 1 {
			sr.bounds[i].stride /= 2
			shrunk = true
		}
	}
	return shrunk
}

// evalBatch evaluates cands — already deduped, valid, and within budget —
// fanning (candidate × workload) jobs through experiments.RunOrdered.
// Results are folded strictly in candidate order on the calling
// goroutine, so acceptance decisions (and emitted points) are identical
// at any worker count.
func (sr *searcher) evalBatch(ctx context.Context, cands []Config) (improved bool, err error) {
	if len(cands) == 0 {
		return false, nil
	}
	nb := len(sr.spec.Workloads)
	sums := make([]float64, len(cands))
	err = experiments.RunOrdered(sr.opts.Workers, len(cands)*nb,
		func(i int) (float64, error) {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			return sr.eval(ctx, cands[i/nb], sr.spec.Workloads[i%nb].Bench)
		},
		func(i int, cpi float64) error {
			ci, bi := i/nb, i%nb
			sums[ci] += sr.spec.Workloads[bi].Weight * cpi
			if bi < nb-1 {
				return nil
			}
			sr.res.Evaluations++
			accepted, aerr := sr.accept(cands[ci], sums[ci]/sr.weightSum)
			if accepted {
				improved = true
			}
			return aerr
		})
	return improved, err
}

// accept scores one evaluated candidate against the frontier, recording
// and emitting it when it improves the incumbent (scalar) or is
// non-dominated (pareto).
func (sr *searcher) accept(cfg Config, mixCPI float64) (bool, error) {
	names := sr.spec.objectiveNames()
	objs := make([]float64, len(names))
	for i, name := range names {
		objs[i] = objectiveValue(name, cfg, mixCPI)
	}
	pt := Point{Eval: sr.res.Evaluations, Config: cfg, CPI: mixCPI, Objectives: objs}
	if sr.spec.Objective != ObjectivePareto {
		if len(sr.frontier) > 0 && objs[0] >= sr.frontier[0].Objectives[0] {
			return false, nil
		}
		sr.frontier = []Point{pt}
	} else {
		for _, q := range sr.frontier {
			if q.Objectives[0] <= objs[0] && q.Objectives[1] <= objs[1] {
				return false, nil // dominated (or duplicated); first found wins
			}
		}
		kept := sr.frontier[:0]
		for _, q := range sr.frontier {
			if objs[0] <= q.Objectives[0] && objs[1] <= q.Objectives[1] {
				continue // now dominated by the new point
			}
			kept = append(kept, q)
		}
		sr.frontier = append(kept, pt)
		sort.Slice(sr.frontier, func(i, j int) bool {
			a, b := sr.frontier[i], sr.frontier[j]
			if a.Objectives[0] != b.Objectives[0] {
				return a.Objectives[0] < b.Objectives[0]
			}
			if a.Objectives[1] != b.Objectives[1] {
				return a.Objectives[1] < b.Objectives[1]
			}
			return a.Config.less(b.Config)
		})
	}
	sr.res.Points = append(sr.res.Points, pt)
	if sr.opts.Emit != nil {
		if err := sr.opts.Emit(pt); err != nil {
			return true, err
		}
	}
	return true, nil
}

// Render returns the human-readable report: the frontier table plus the
// search accounting, deterministic for a fixed spec.
func (r *Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", r.Spec.Title)
	var bounds []string
	for _, name := range axisNames {
		b, ok := r.Spec.Bounds[name]
		if !ok {
			continue
		}
		bounds = append(bounds, fmt.Sprintf("%s %d..%d step %d", name, b.Min, b.Max, b.Step))
	}
	fmt.Fprintf(&sb, "bounds: %s; budget %d; seed %d\n\n", strings.Join(bounds, ", "), r.Spec.Budget, r.Spec.Seed)
	tw := tabwriter.NewWriter(&sb, 2, 8, 2, ' ', 0)
	fmt.Fprint(tw, "eval\twidth\tdepth\twindow\trob\tclusters\tfbuf\tcpi")
	for _, name := range r.extraObjectives() {
		fmt.Fprintf(tw, "\t%s", name)
	}
	fmt.Fprintln(tw)
	names := r.Spec.objectiveNames()
	for _, pt := range r.Frontier {
		c := pt.Config
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.4f",
			pt.Eval, c.Width, c.Depth, c.Window, c.ROB, c.Clusters, c.FetchBuffer, pt.CPI)
		for i, name := range names {
			if name == ObjectiveCPI {
				continue
			}
			fmt.Fprintf(tw, "\t%.4f", pt.Objectives[i])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	pct := 100 * float64(r.Evaluations) / float64(r.GridSize)
	fmt.Fprintf(&sb, "\n%d evaluations over a %d-point grid (%.1f%%), %d refinement rounds, converged=%v\n",
		r.Evaluations, r.GridSize, pct, r.Rounds, r.Converged)
	return sb.String()
}

// extraObjectives returns the objective columns beyond the CPI column
// every row already carries.
func (r *Result) extraObjectives() []string {
	var out []string
	for _, name := range r.Spec.objectiveNames() {
		if name != ObjectiveCPI {
			out = append(out, name)
		}
	}
	return out
}

// CSV returns the machine-readable frontier, full float precision.
func (r *Result) CSV() string {
	var sb strings.Builder
	sb.WriteString("eval,width,depth,window,rob,clusters,fetch_buffer,cpi")
	for _, name := range r.extraObjectives() {
		sb.WriteString("," + name)
	}
	sb.WriteByte('\n')
	names := r.Spec.objectiveNames()
	for _, pt := range r.Frontier {
		c := pt.Config
		fmt.Fprintf(&sb, "%d,%d,%d,%d,%d,%d,%d,%s",
			pt.Eval, c.Width, c.Depth, c.Window, c.ROB, c.Clusters, c.FetchBuffer,
			strconv.FormatFloat(pt.CPI, 'g', -1, 64))
		for i, name := range names {
			if name == ObjectiveCPI {
				continue
			}
			sb.WriteString("," + strconv.FormatFloat(pt.Objectives[i], 'g', -1, 64))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"fomodel/internal/core"
	"fomodel/internal/stats"
	"fomodel/internal/uarch"
	"fomodel/internal/workload"
)

// SweepPoint is one (parameter value, benchmark) sample of a machine
// sweep.
type SweepPoint struct {
	Bench    string  `json:"bench"`
	Value    int     `json:"value"`
	SimCPI   float64 `json:"sim_cpi"`
	ModelCPI float64 `json:"model_cpi"`
	Err      float64 `json:"err"`
}

// SweepResult is a machine-parameter sweep validating the model across a
// dimension the paper varies analytically.
type SweepResult struct {
	Title      string       `json:"title"`
	Param      string       `json:"param"`
	Points     []SweepPoint `json:"points"`
	MeanAbsErr float64      `json:"mean_abs_err"`
}

// tab builds the result table.
func (r *SweepResult) tab() *table {
	t := &table{
		title:  r.Title,
		header: []string{"bench", r.Param, "model CPI", "sim CPI", "err"},
	}
	for _, p := range r.Points {
		t.addRow(p.Bench, fmt.Sprintf("%d", p.Value), f3(p.ModelCPI), f3(p.SimCPI), pct(p.Err))
	}
	t.addNote("mean |err| %s", pct(r.MeanAbsErr))
	return t
}

// Render prints the table as aligned text.
func (r *SweepResult) Render() string { return r.tab().String() }

// CSV renders the table as comma-separated values.
func (r *SweepResult) CSV() string { return r.tab().CSV() }

func (r *SweepResult) finish() {
	for _, p := range r.Points {
		r.MeanAbsErr += abs(p.Err)
	}
	if len(r.Points) > 0 {
		r.MeanAbsErr /= float64(len(r.Points))
	}
}

// SweepSpec describes a design-space sweep over one machine parameter:
// every benchmark in Benches is run (simulator and model) at every value
// in Values, with the suite's baseline machine supplying the remaining
// parameters. It is the request shape shared by the built-in sweep
// experiments and the serving daemon's /v1/sweep endpoint.
type SweepSpec struct {
	// Title heads the rendered table; empty derives one from Param and
	// Benches.
	Title string `json:"title,omitempty"`
	// Param names the swept dimension; see SweepParams.
	Param string `json:"param"`
	// Benches lists the workloads, in report order.
	Benches []string `json:"benches"`
	// Values lists the parameter values, in report order.
	Values []int `json:"values"`
}

// sweepCell computes one (benchmark, value) grid cell's model side and
// point from the cell's simulation.
type sweepCell func(s *Suite, w *Workload, v int, sim *uarch.Result) (SweepPoint, error)

// sweepParam is one supported sweep dimension: how a value sets the
// simulator's configuration, and how a grid cell is computed from the
// simulation at that value.
type sweepParam struct {
	set  func(c *uarch.Config, v int)
	cell sweepCell
}

// sweepParams maps each supported parameter to its dimension. The
// window and ROB cells re-derive the model inputs that depend on the
// swept size (the measured IW point and the equation-(8) miss grouping
// respectively); width and depth only move timing-side machine
// parameters, so the cached workload inputs are reused as-is.
var sweepParams = map[string]sweepParam{
	"window": {setWindow, windowCell},
	"rob":    {func(c *uarch.Config, v int) { c.ROBSize = v }, robCell},
	"width":  {func(c *uarch.Config, v int) { c.Width = v }, widthCell},
	"depth":  {func(c *uarch.Config, v int) { c.FrontEndDepth = v }, depthCell},
}

// setWindow sets the issue window, bumping the ROB when it would fall
// below it.
func setWindow(c *uarch.Config, win int) {
	c.WindowSize = win
	if c.ROBSize < win {
		c.ROBSize = win
	}
}

// SweepParams returns the supported sweep parameter names, sorted.
func SweepParams() []string {
	params := make([]string, 0, len(sweepParams))
	for p := range sweepParams {
		params = append(params, p)
	}
	sort.Strings(params)
	return params
}

// Validate reports the first structural problem with the spec,
// accepting only built-in benchmark names and checking values against
// the baseline simulator configuration. Servers with a workload
// registry use ValidateFor so registered names pass too.
func (sp SweepSpec) Validate() error { return sp.ValidateFor(nil) }

// ValidateFor is Validate against a suite: a bench name is acceptable
// when it is built-in or when s resolves it through its
// registered-workload lookup, and every value must give a valid
// simulator configuration (uarch.Config.Validate, whose upper bounds
// keep one request from exhausting memory) when applied to s's baseline.
// A nil s accepts built-ins only and checks against
// uarch.DefaultConfig.
func (sp SweepSpec) ValidateFor(s *Suite) error {
	param, ok := sweepParams[sp.Param]
	if !ok {
		return fmt.Errorf("experiments: unknown sweep parameter %q (known: %s)",
			sp.Param, strings.Join(SweepParams(), ", "))
	}
	if len(sp.Benches) == 0 {
		return fmt.Errorf("experiments: sweep needs at least one benchmark")
	}
	for _, b := range sp.Benches {
		if s.KnowsWorkload(b) {
			continue
		}
		if _, err := workload.ByName(b); err != nil {
			return err
		}
	}
	if len(sp.Values) == 0 {
		return fmt.Errorf("experiments: sweep needs at least one %s value", sp.Param)
	}
	base := uarch.DefaultConfig()
	if s != nil {
		base = s.Sim
	}
	for _, v := range sp.Values {
		if v < 1 {
			return fmt.Errorf("experiments: sweep value %d < 1", v)
		}
		cfg := base
		param.set(&cfg, v)
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("experiments: sweep %s value %d: %w", sp.Param, v, err)
		}
	}
	return nil
}

// Sweep runs the spec's bench × value grid concurrently (bounded by
// s.Workers) and collects the points in grid order, so any worker count
// produces an identical result. Cancelling ctx stops the sweep at the
// next grid cell; started cells run to completion but their results are
// discarded.
func Sweep(ctx context.Context, s *Suite, spec SweepSpec) (*SweepResult, error) {
	return SweepStream(ctx, s, spec, nil)
}

// SweepStream is Sweep with per-cell delivery: emit (when non-nil) is
// called on the calling goroutine, strictly in grid order, as each cell's
// point becomes available — the streaming surface the daemon's NDJSON
// sweep mode is built on. An emit error stops the sweep (no new cells are
// handed out) and is returned; cancelling ctx stops it at the next grid
// cell. The returned result is identical to Sweep's for the same spec.
func SweepStream(ctx context.Context, s *Suite, spec SweepSpec, emit func(SweepPoint) error) (*SweepResult, error) {
	if err := spec.ValidateFor(s); err != nil {
		return nil, err
	}
	title := spec.Title
	if title == "" {
		title = fmt.Sprintf("Design-space sweep: %s across %s",
			spec.Param, strings.Join(spec.Benches, ", "))
	}
	res := &SweepResult{Title: title, Param: spec.Param}
	param := sweepParams[spec.Param]
	jobs := sweepGrid(spec.Benches, spec.Values)
	err := RunOrdered(s.workers(), len(jobs), func(i int) (SweepPoint, error) {
		if err := ctx.Err(); err != nil {
			return SweepPoint{}, err
		}
		w, err := s.Workload(jobs[i].bench)
		if err != nil {
			return SweepPoint{}, err
		}
		v := jobs[i].value
		sim, err := s.Simulate(w, func(c *uarch.Config) { param.set(c, v) })
		if err != nil {
			return SweepPoint{}, err
		}
		return param.cell(s, w, v, sim)
	}, func(_ int, pt SweepPoint) error {
		res.Points = append(res.Points, pt)
		if emit != nil {
			return emit(pt)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// sweepJob is one (benchmark, parameter value) cell of a sweep grid.
type sweepJob struct {
	bench string
	value int
}

// sweepGrid flattens a bench × value grid into the job list fed to
// RunOrdered, keeping report order (benchmarks outer, values inner).
func sweepGrid(benches []string, values []int) []sweepJob {
	jobs := make([]sweepJob, 0, len(benches)*len(values))
	for _, b := range benches {
		for _, v := range values {
			jobs = append(jobs, sweepJob{bench: b, value: v})
		}
	}
	return jobs
}

// windowCell shrinks or grows the issue window, re-deriving the measured
// steady-state IW point at the new size (the ROB is bumped when it would
// fall below the window).
func windowCell(s *Suite, w *Workload, win int, sim *uarch.Result) (SweepPoint, error) {
	var zero SweepPoint
	m := s.Machine
	m.WindowSize = win
	if m.ROBSize < win {
		m.ROBSize = win
	}
	// Re-derive the measured steady point at this window size.
	in, err := core.InputsFromCurve(w.Law, w.Points, win, w.Summary)
	if err != nil {
		return zero, err
	}
	est, err := m.Estimate(in, modelOptions())
	if err != nil {
		return zero, err
	}
	return SweepPoint{
		Bench:    w.Name,
		Value:    win,
		SimCPI:   sim.CPI(),
		ModelCPI: est.CPI,
		Err:      relErr(est.CPI, sim.CPI()),
	}, nil
}

// robCell resizes the reorder buffer, re-analyzing the trace so the
// equation-(8) long-miss grouping uses the new horizon.
func robCell(s *Suite, w *Workload, rob int, sim *uarch.Result) (SweepPoint, error) {
	var zero SweepPoint
	// Re-analyze with the new grouping horizon.
	scfg := stats.DefaultConfig()
	scfg.Hierarchy = s.Sim.Hierarchy
	scfg.PredictorBits = s.Sim.PredictorBits
	scfg.Latencies = s.Sim.Latencies
	scfg.ROBSize = rob
	scfg.Warmup = s.Sim.Warmup
	sum, err := stats.Analyze(w.Trace, scfg)
	if err != nil {
		return zero, err
	}
	m := s.Machine
	m.ROBSize = rob
	in, err := core.InputsFromCurve(w.Law, w.Points, m.WindowSize, sum)
	if err != nil {
		return zero, err
	}
	est, err := m.Estimate(in, modelOptions())
	if err != nil {
		return zero, err
	}
	return SweepPoint{
		Bench:    w.Name,
		Value:    rob,
		SimCPI:   sim.CPI(),
		ModelCPI: est.CPI,
		Err:      relErr(est.CPI, sim.CPI()),
	}, nil
}

// widthCell varies the fetch/dispatch/issue/retire width; the workload
// inputs are width-independent, so the cached bundle is reused.
func widthCell(s *Suite, w *Workload, width int, sim *uarch.Result) (SweepPoint, error) {
	var zero SweepPoint
	m := s.Machine
	m.Width = width
	est, err := m.Estimate(w.Inputs, modelOptions())
	if err != nil {
		return zero, err
	}
	return SweepPoint{
		Bench:    w.Name,
		Value:    width,
		SimCPI:   sim.CPI(),
		ModelCPI: est.CPI,
		Err:      relErr(est.CPI, sim.CPI()),
	}, nil
}

// depthCell varies the front-end pipeline depth ΔP, which only moves the
// branch misprediction penalty.
func depthCell(s *Suite, w *Workload, depth int, sim *uarch.Result) (SweepPoint, error) {
	var zero SweepPoint
	m := s.Machine
	m.FrontEndDepth = depth
	est, err := m.Estimate(w.Inputs, modelOptions())
	if err != nil {
		return zero, err
	}
	return SweepPoint{
		Bench:    w.Name,
		Value:    depth,
		SimCPI:   sim.CPI(),
		ModelCPI: est.CPI,
		Err:      relErr(est.CPI, sim.CPI()),
	}, nil
}

// WindowSweep validates the steady-state model through the knee of the IW
// curve: as the window shrinks below saturation, the power law (not the
// width clip) sets the background IPC. Three benchmarks spanning the beta
// range, windows 8–96.
func WindowSweep(ctx context.Context, s *Suite) (*SweepResult, error) {
	return Sweep(ctx, s, SweepSpec{
		Title:   "Window sweep: steady state through the IW-curve knee",
		Param:   "window",
		Benches: []string{"gzip", "vortex", "vpr"},
		Values:  []int{8, 16, 32, 48, 96},
	})
}

// ROBSweep validates the data-miss overlap model across reorder-buffer
// sizes: a larger ROB overlaps more long misses, so f_LDM — and with it
// the d-miss CPI — must be re-derived per size. The d-miss-heavy
// benchmarks are the sensitive ones.
func ROBSweep(ctx context.Context, s *Suite) (*SweepResult, error) {
	return Sweep(ctx, s, SweepSpec{
		Title:   "ROB sweep: equation (8) overlap across reorder-buffer sizes",
		Param:   "rob",
		Benches: []string{"mcf", "twolf", "gap"},
		Values:  []int{48, 96, 128, 256},
	})
}

package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"fomodel/internal/uarch"
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
func (r *SweepResult) Render() string { return r.tab().Render() }

// CSV renders the table as comma-separated values.
func (r *SweepResult) CSV() string { return r.tab().CSV() }

func (r *SweepResult) finish() {
	r.MeanAbsErr = meanAbs(r.Points, func(p SweepPoint) float64 { return p.Err })
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

// sweepParams maps each supported parameter to how a value sets the
// simulator's configuration; the model's machine is derived from it
// (ModelMachine). A window that outgrows the ROB bumps the ROB to match.
var sweepParams = map[string]func(c *uarch.Config, v int){
	"window": func(c *uarch.Config, v int) { c.WindowSize, c.ROBSize = v, max(c.ROBSize, v) },
	"rob":    func(c *uarch.Config, v int) { c.ROBSize = v },
	"width":  func(c *uarch.Config, v int) { c.Width = v },
	"depth":  func(c *uarch.Config, v int) { c.FrontEndDepth = v },
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
	set, ok := sweepParams[sp.Param]
	if !ok {
		return fmt.Errorf("experiments: unknown sweep parameter %q (known: %s)",
			sp.Param, strings.Join(SweepParams(), ", "))
	}
	if len(sp.Benches) == 0 {
		return fmt.Errorf("experiments: sweep needs at least one benchmark")
	}
	for _, b := range sp.Benches {
		if _, err := s.content(b); err != nil {
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
		set(&cfg, v)
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
	if err := spec.ValidateFor(s); err != nil {
		return nil, err
	}
	return SweepStream(ctx, s, spec, nil)
}

// SweepStream is Sweep with per-cell delivery: emit (when non-nil) is
// called on the calling goroutine, strictly in grid order, as each cell's
// point becomes available — the streaming surface the daemon's NDJSON
// sweep mode is built on. An emit error stops the sweep (no new cells are
// handed out) and is returned; cancelling ctx stops it at the next grid
// cell. The returned result is identical to Sweep's for the same spec.
// Unlike Sweep, it does not validate: spec must have passed
// ValidateFor(s), as the daemon's sweep handler checks before keying.
func SweepStream(ctx context.Context, s *Suite, spec SweepSpec, emit func(SweepPoint) error) (*SweepResult, error) {
	title := spec.Title
	if title == "" {
		title = fmt.Sprintf("Design-space sweep: %s across %s",
			spec.Param, strings.Join(spec.Benches, ", "))
	}
	set := sweepParams[spec.Param]
	points, err := mapGrid(ctx.Err, s, spec.Benches, len(spec.Values), func(w *Workload, i int) (SweepPoint, error) {
		// Every sweep parameter is timing-only, so the cell runs the
		// model on w's own analysis (the miss grouping and the measured
		// IW point follow the ROB and window through Compare).
		v := spec.Values[i]
		c, err := s.Compare(w, func(c *uarch.Config) { set(c, v) }, modelOptions())
		if err != nil {
			return SweepPoint{}, err
		}
		return SweepPoint{Bench: w.Name, Value: v, SimCPI: c.Sim.CPI(), ModelCPI: c.Estimate.CPI, Err: c.Err()}, nil
	}, emit)
	if err != nil {
		return nil, unprefixed(err)
	}
	res := &SweepResult{Title: title, Param: spec.Param, Points: points}
	res.finish()
	return res, nil
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

package experiments

import (
	"fmt"

	"fomodel/internal/cache"
	"fomodel/internal/isa"
	"fomodel/internal/uarch"
)

// This file validates the paper's §7 "new features" — limited functional
// units, instruction fetch buffers, and TLB misses — which we implement in
// both the simulator and the model (DESIGN.md §5). Each experiment runs
// model vs simulator with the feature enabled and reports the same
// CPI-error metric as Fig. 15.

// ExtensionRow is one benchmark of an extension validation.
type ExtensionRow struct {
	Name     string
	ModelCPI float64
	SimCPI   float64
	Err      float64
}

// ExtensionResult is a model-vs-simulator validation of one extension.
type ExtensionResult struct {
	Title      string
	Rows       []ExtensionRow
	MeanAbsErr float64
	Notes      []string
}

// tab builds the result table.
func (r *ExtensionResult) tab() *table {
	t := &table{
		title:  r.Title,
		header: []string{"bench", "model", "simulation", "err"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Name, f3(row.ModelCPI), f3(row.SimCPI), pct(row.Err))
	}
	t.addNote("mean |err| %s", pct(r.MeanAbsErr))
	t.notes = append(t.notes, r.Notes...)
	return t
}

// Render prints the table as aligned text.
func (r *ExtensionResult) Render() string { return r.tab().String() }

// CSV renders the table as comma-separated values.
func (r *ExtensionResult) CSV() string { return r.tab().CSV() }

// extensionRow is w's row of an extension validation from its
// comparison at the extension's machine point.
func extensionRow(w *Workload, c *Comparison) ExtensionRow {
	return ExtensionRow{Name: w.Name, ModelCPI: c.Estimate.CPI, SimCPI: c.Sim.CPI(), Err: c.Err()}
}

func (r *ExtensionResult) finish() {
	r.MeanAbsErr = meanAbs(r.Rows, func(row ExtensionRow) float64 { return row.Err })
}

// DefaultFUCounts returns the limited functional-unit configuration of
// the extension study: one multiplier, one divider, one FP unit, a single
// load port and a single store port, and unbounded simple ALUs
// and branches.
func DefaultFUCounts() [isa.NumClasses]int {
	var fu [isa.NumClasses]int
	fu[isa.Mul] = 1
	fu[isa.Div] = 1
	fu[isa.FPU] = 1
	fu[isa.Load] = 1
	fu[isa.Store] = 1
	return fu
}

// ExtensionFU validates the limited-functional-unit model (§7 #1): the
// saturation level drops to min(width, count/mix) per limited class.
func ExtensionFU(s *Suite) (*ExtensionResult, error) {
	fu := DefaultFUCounts()
	res := &ExtensionResult{
		Title: "Extension: limited functional units (1 mul, 1 div, 1 FP, 1 load, 1 store)",
	}
	type fuRow struct {
		row  ExtensionRow
		note string
	}
	rows, err := MapWorkloads(s, func(w *Workload) (fuRow, error) {
		var zero fuRow
		c, err := s.Compare(w, func(c *uarch.Config) { c.FUCounts = fu }, modelOptions())
		if err != nil {
			return zero, err
		}
		return fuRow{
			row:  extensionRow(w, c),
			note: fmt.Sprintf("effective width for %s: %.2f of %d", w.Name, c.Estimate.EffectiveWidth, s.Sim.Width),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		res.Rows = append(res.Rows, r.row)
		if i == 0 {
			res.Notes = append(res.Notes, r.note)
		}
	}
	res.finish()
	return res, nil
}

// FetchBufferPoint is one (buffer size → CPI) sample of the fetch-buffer
// study.
type FetchBufferPoint struct {
	Buffer   int
	SimCPI   float64
	ModelCPI float64
}

// FetchBufferResult sweeps fetch-buffer sizes on an I-cache-bound
// benchmark (§7 #2): the buffer hides part of the I-cache miss delay.
type FetchBufferResult struct {
	Bench  string
	Points []FetchBufferPoint
}

// ExtensionFetchBuffer runs the sweep on vortex, the I-cache-heaviest
// benchmark.
func ExtensionFetchBuffer(s *Suite) (*FetchBufferResult, error) {
	const bench = "vortex"
	w, err := s.Workload(bench)
	if err != nil {
		return nil, err
	}
	res := &FetchBufferResult{Bench: bench}
	for _, buf := range []int{0, 8, 16, 32, 64} {
		opts := modelOptions()
		if buf > 0 {
			// Only misses whose gap lets fetch rebuild the buffer are
			// hidden; rebuilding B entries at (width − IPC) slack per
			// cycle takes roughly 4·B instructions of quiet fetch.
			opts.FetchBufferCoverage = w.Summary.IsolatedICacheFrac(4 * buf)
		}
		c, err := s.Compare(w, func(c *uarch.Config) { c.FetchBufferSize = buf }, opts)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, FetchBufferPoint{Buffer: buf, SimCPI: c.Sim.CPI(), ModelCPI: c.Estimate.CPI})
	}
	return res, nil
}

// tab builds the result table.
func (r *FetchBufferResult) tab() *table {
	t := &table{
		title:  fmt.Sprintf("Extension: instruction fetch buffer sweep (%s)", r.Bench),
		header: []string{"buffer", "model CPI", "sim CPI"},
	}
	for _, p := range r.Points {
		t.addRow(fmt.Sprintf("%d", p.Buffer), f3(p.ModelCPI), f3(p.SimCPI))
	}
	t.addNote("gains are modest in both model and machine: vortex's misses cluster in cold-code")
	t.addNote("excursions where fetch supply is the bottleneck, so only isolated misses get hidden")
	return t
}

// Render prints the table as aligned text.
func (r *FetchBufferResult) Render() string { return r.tab().String() }

// CSV renders the table as comma-separated values.
func (r *FetchBufferResult) CSV() string { return r.tab().CSV() }

// ExtensionTLB validates the TLB-miss model (§7 #4): misses behave like
// long data misses with the page-walk latency and equation-(8) overlap.
func ExtensionTLB(s *Suite) (*ExtensionResult, error) {
	tlbCfg := cache.DefaultTLB()
	res := &ExtensionResult{
		Title: fmt.Sprintf("Extension: data TLB (%d entries, %d B pages, %d-cycle walk)",
			tlbCfg.Entries, tlbCfg.PageBytes, tlbCfg.MissLatency),
	}
	// The TLB changes the functional analysis, so Compare re-analyzes
	// with it and the model sees the TLB miss rates and clustering.
	rows, err := MapWorkloads(s, func(w *Workload) (ExtensionRow, error) {
		c, err := s.Compare(w, func(c *uarch.Config) { c.TLB = &tlbCfg }, modelOptions())
		if err != nil {
			return ExtensionRow{}, err
		}
		return extensionRow(w, c), nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	res.finish()
	return res, nil
}

// Package sampling implements sampled simulation — the third methodology
// in the accuracy/cost trade-off the paper motivates. Where the
// first-order model replaces timing simulation with closed forms and
// statistical simulation replaces the real trace with a synthetic one,
// sampled simulation times only periodically selected windows of the real
// trace and extrapolates.
//
// The implementation reuses the repository's decoupled design: the one
// functional pass (uarch.Classify, which is stats.Classify) runs over the
// whole trace and classifies every miss event, so cache and predictor
// state is exact at every window boundary — "functional warming" in the
// sampling literature — and the detailed simulator then times only the
// sampled windows via uarch.SimulateWithEvents. The estimate is the
// instruction-weighted mean CPI of the sampled windows.
//
// Three standard sampling biases remain, by design: register dependences
// that cross a window's starting boundary are treated as ready (slightly
// optimistic); each window pays its own pipeline-fill start-up; and each
// window drains its in-flight long misses before finishing, charging their
// full latency without the overlap the surrounding trace would provide
// (pessimistic, and the dominant term for short windows — it shrinks as
// 1/WindowLen). The methods experiment quantifies the net effect against
// full simulation.
package sampling

import (
	"fmt"

	"fomodel/internal/trace"
	"fomodel/internal/uarch"
)

// Config controls the sampling regime.
type Config struct {
	// WindowLen is the length of each timed window in instructions.
	WindowLen int
	// Period is the distance between window starts; Period == WindowLen
	// times everything (no speedup), Period = 10×WindowLen times 10%.
	Period int
}

// DefaultConfig samples 10k-instruction windows every 100k instructions
// (10% of the trace timed).
func DefaultConfig() Config {
	return Config{WindowLen: 10000, Period: 100000}
}

// Validate reports the first structural problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.WindowLen <= 0:
		return fmt.Errorf("sampling: window length %d must be positive", c.WindowLen)
	case c.Period < c.WindowLen:
		return fmt.Errorf("sampling: period %d below window length %d", c.Period, c.WindowLen)
	}
	return nil
}

// Result reports a sampled estimate.
type Result struct {
	// CPI is the instruction-weighted mean CPI over the sampled windows.
	CPI float64
	// Windows is the number of windows timed and SampledInstructions
	// their total length.
	Windows             int
	SampledInstructions int
	// TotalInstructions is the full trace length.
	TotalInstructions int
}

// SampledFraction returns the fraction of the trace that was timed.
func (r *Result) SampledFraction() float64 {
	if r.TotalInstructions == 0 {
		return 0
	}
	return float64(r.SampledInstructions) / float64(r.TotalInstructions)
}

// Estimate runs sampled simulation of t on the machine described by cfg.
func Estimate(t *trace.Trace, cfg uarch.Config, sc Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("sampling: empty trace %q", t.Name)
	}

	// Functional warming: classify every instruction of the full trace
	// with the reference simulator's own functional pass.
	events, err := uarch.Classify(t, cfg)
	if err != nil {
		return nil, err
	}

	res := &Result{TotalInstructions: t.Len()}
	var weightedCycles float64
	for start := 0; start < t.Len(); start += sc.Period {
		end := start + sc.WindowLen
		if end > t.Len() {
			end = t.Len()
		}
		window := &trace.Trace{Name: t.Name, Instrs: t.Instrs[start:end]}
		r, err := uarch.SimulateWithEvents(window, events[start:end], cfg)
		if err != nil {
			return nil, err
		}
		weightedCycles += float64(r.Cycles)
		res.Windows++
		res.SampledInstructions += window.Len()
	}
	if res.SampledInstructions == 0 {
		return nil, fmt.Errorf("sampling: no windows sampled")
	}
	res.CPI = weightedCycles / float64(res.SampledInstructions)
	return res, nil
}

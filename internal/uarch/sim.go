package uarch

import (
	"fmt"

	"fomodel/internal/stats"
	"fomodel/internal/trace"
)

// maxIdleCycles bounds how long the simulator may go without retiring an
// instruction before it reports a deadlock; generous compared to any legal
// stall (memory latency + pipeline depth).
const maxIdleCycles = 1 << 20

// Simulate runs the detailed cycle-level simulation of t on the machine
// described by cfg.
func Simulate(t *trace.Trace, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("uarch: empty trace %q", t.Name)
	}
	events, err := Classify(t, cfg)
	if err != nil {
		return nil, err
	}
	return run(t, cfg, events)
}

// Classify runs the functional pass, stats.Classify, under the
// classification fields of cfg: the same events stats.Analyze counts
// for the model, so model and simulator agree on miss-event counts.
func Classify(t *trace.Trace, cfg Config) ([]stats.Event, error) {
	return stats.Classify(t, classification(cfg))
}

// classification projects cfg onto the stats configuration fields the
// functional pass reads. classificationKey is derived from it, so the
// prep cache's key and the pass read the same fields.
func classification(cfg Config) stats.Config {
	return stats.Config{
		Hierarchy:     cfg.Hierarchy,
		PredictorBits: cfg.PredictorBits,
		Predictor:     cfg.Predictor,
		TLB:           cfg.TLB,
		Warmup:        cfg.Warmup,
	}
}

// SimulateWithEvents runs the timing simulation of t with the given
// per-instruction miss events instead of deriving them from the cache and
// predictor models, for callers that synthesize events statistically
// (statistical simulation, the paper's related work [8-10]) or force
// them. len(events) must equal t.Len().
func SimulateWithEvents(t *trace.Trace, events []stats.Event, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("uarch: empty trace %q", t.Name)
	}
	if len(events) != t.Len() {
		return nil, fmt.Errorf("uarch: %d events for %d instructions", len(events), t.Len())
	}
	for i, ev := range events {
		if !ev.Valid() {
			return nil, fmt.Errorf("uarch: event %d (0x%02x) is not a valid classification", i, uint8(ev))
		}
		if ev.TLBMiss() && cfg.TLB == nil {
			return nil, fmt.Errorf("uarch: event %d has a TLB miss but no TLB is configured", i)
		}
	}
	return run(t, cfg, events)
}

package uarch

import (
	"fmt"

	"fomodel/internal/cache"
	"fomodel/internal/isa"
	"fomodel/internal/predictor"
	"fomodel/internal/stats"
	"fomodel/internal/trace"
)

// maxIdleCycles bounds how long the simulator may go without retiring an
// instruction before it reports a deadlock; generous compared to any legal
// stall (memory latency + pipeline depth).
const maxIdleCycles = 1 << 20

// prep holds the precomputed, program-order miss-event classification of
// one instruction (see the package comment for why classification is
// decoupled from timing). run treats preps as read-only, so one slice may
// be shared by many concurrent runs (see PrepCache).
type prep struct {
	ires    cache.Result
	dres    cache.Result
	misp    bool
	tlbMiss bool
}

// Simulate runs the detailed cycle-level simulation of t on the machine
// described by cfg.
func Simulate(t *trace.Trace, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("uarch: empty trace %q", t.Name)
	}
	preps, err := classify(t, cfg)
	if err != nil {
		return nil, err
	}
	return run(t, cfg, preps, trace.ComputeProducers(t))
}

// Event is an externally supplied per-instruction miss-event
// classification, used by SimulateWithEvents. It replaces the functional
// cache/predictor pass for callers that synthesize events statistically
// (statistical simulation, the paper's related work [8-10]).
type Event struct {
	// ICache classifies the instruction's fetch.
	ICache cache.Result
	// DCache classifies the data access (loads/stores only).
	DCache cache.Result
	// Mispredict marks a mispredicted branch (branches only).
	Mispredict bool
	// TLBMiss marks a data-TLB miss (loads/stores only; needs cfg.TLB).
	TLBMiss bool
}

// SimulateWithEvents runs the timing simulation of t with the given
// per-instruction miss events instead of deriving them from the cache and
// predictor models. len(events) must equal t.Len().
func SimulateWithEvents(t *trace.Trace, events []Event, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("uarch: empty trace %q", t.Name)
	}
	if len(events) != t.Len() {
		return nil, fmt.Errorf("uarch: %d events for %d instructions", len(events), t.Len())
	}
	preps := make([]prep, len(events))
	for i, ev := range events {
		if ev.TLBMiss && cfg.TLB == nil {
			return nil, fmt.Errorf("uarch: event %d has a TLB miss but no TLB is configured", i)
		}
		preps[i] = prep{ires: ev.ICache, dres: ev.DCache, misp: ev.Mispredict, tlbMiss: ev.TLBMiss}
	}
	return run(t, cfg, preps, trace.ComputeProducers(t))
}

// classify performs the functional program-order pass: every instruction's
// fetch result, data access result, and (for branches) predictor outcome.
// The access sequence matches stats.Analyze exactly, so miss-event counts
// agree between the model's inputs and the simulator.
func classify(t *trace.Trace, cfg Config) ([]prep, error) {
	h, err := cache.NewHierarchy(cfg.Hierarchy)
	if err != nil {
		return nil, err
	}
	gs, err := newPredictor(cfg.Predictor, cfg.PredictorBits)
	if err != nil {
		return nil, err
	}
	var tlb *cache.TLB
	if cfg.TLB != nil {
		tlb, err = cache.NewTLB(*cfg.TLB)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Warmup {
		stats.WarmHierarchy(h, t)
	}
	preps := make([]prep, t.Len())
	for i := range t.Instrs {
		in := &t.Instrs[i]
		p := &preps[i]
		p.ires = h.Fetch(in.PC)
		switch in.Class {
		case isa.Branch:
			p.misp = gs.Predict(in.PC) != in.Taken
			gs.Update(in.PC, in.Taken)
		case isa.Load, isa.Store:
			if tlb != nil {
				p.tlbMiss = !tlb.Access(in.Addr)
			}
			p.dres = h.Data(in.Addr)
		}
	}
	return preps, nil
}

// newPredictor instantiates the configured predictor: the spec when
// given, otherwise the default gshare with the given index width.
func newPredictor(spec *predictor.Spec, bits uint) (predictor.Predictor, error) {
	if spec != nil {
		return spec.New()
	}
	return predictor.NewGshare(bits)
}

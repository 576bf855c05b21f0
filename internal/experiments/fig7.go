package experiments

import (
	"fmt"
	"strings"

	"fomodel/internal/core"
	"fomodel/internal/isa"
	"fomodel/internal/stats"
	"fomodel/internal/uarch"
)

// Figure7Result measures the branch misprediction transient *empirically*
// (the paper's Fig. 7 schematic): the simulator runs a real trace twice —
// once with every miss event suppressed, once with a single injected
// misprediction — and the per-cycle issue counts diverge exactly at the
// transient: drain → ΔP refill → ramp-up. The analytic isolated penalty
// (eq. 2) is computed alongside. A single event's cost is noisy (it
// interacts with the local dependence structure); the paper models the
// average, which Fig. 9 measures.
type Figure7Result struct {
	// Bench names the trace the transient was injected into.
	Bench string
	// Clean and Dirty are the per-cycle issue counts around the injected
	// event, aligned from a few cycles before the runs diverge.
	Clean, Dirty []uint8
	// ZeroCycles is the longest zero-issue run in the dirty transient
	// (the refill gap; ≳ ΔP).
	ZeroCycles int
	// PenaltyCycles is the measured total penalty: extra cycles versus
	// the uninterrupted run.
	PenaltyCycles int64
	// AnalyticPenalty is the model's isolated penalty (eq. 2).
	AnalyticPenalty float64
	FrontEndDepth   int
}

// Figure7 injects a single misprediction into an otherwise
// miss-event-free run of gzip and observes the machine's transient.
func Figure7(s *Suite) (*Figure7Result, error) {
	const bench = "gzip"
	w, err := s.Workload(bench)
	if err != nil {
		return nil, err
	}
	t := w.Trace

	// All events clear, except one mispredicted branch near the middle.
	events := make([]stats.Event, t.Len())
	target := -1
	for i := t.Len() / 2; i < t.Len(); i++ {
		if t.Instrs[i].Class == isa.Branch {
			target = i
			break
		}
	}
	if target < 0 {
		return nil, fmt.Errorf("experiments: no branch found in %s", bench)
	}

	cfg := s.Sim
	cfg.RecordIssueTrace = true
	clean, err := uarch.SimulateWithEvents(t, events, cfg)
	if err != nil {
		return nil, err
	}
	events[target] |= stats.EventMispredict
	dirty, err := uarch.SimulateWithEvents(t, events, cfg)
	if err != nil {
		return nil, err
	}

	res := &Figure7Result{
		Bench:         bench,
		PenaltyCycles: dirty.Cycles - clean.Cycles,
		FrontEndDepth: cfg.FrontEndDepth,
	}

	// The two runs are cycle-identical until the misprediction bites;
	// align the display window at the divergence point.
	div := -1
	for i := 0; i < len(clean.IssueTrace) && i < len(dirty.IssueTrace); i++ {
		if clean.IssueTrace[i] != dirty.IssueTrace[i] {
			div = i
			break
		}
	}
	if div < 0 {
		return nil, fmt.Errorf("experiments: injected misprediction had no effect")
	}
	lo := div - 8
	if lo < 0 {
		lo = 0
	}
	hi := div + 45
	slice := func(tr []uint8) []uint8 {
		h := hi
		if h > len(tr) {
			h = len(tr)
		}
		return append([]uint8(nil), tr[lo:h]...)
	}
	res.Clean = slice(clean.IssueTrace)
	res.Dirty = slice(dirty.IssueTrace)

	// The refill gap: longest zero-issue run within the transient.
	runLen, bestLen := 0, 0
	for _, v := range res.Dirty {
		if v == 0 {
			runLen++
			if runLen > bestLen {
				bestLen = runLen
			}
		} else {
			runLen = 0
		}
	}
	res.ZeroCycles = bestLen

	// The analytic counterpart.
	est, err := s.Machine.Estimate(w.Inputs, core.Options{BranchMode: core.BranchIsolated})
	if err != nil {
		return nil, err
	}
	res.AnalyticPenalty = est.BranchPenalty
	return res, nil
}

// Render prints the measured transient next to the analytic penalty.
func (r *Figure7Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 7: a single injected misprediction observed in the machine (%s)\n", r.Bench)
	fmt.Fprintf(&sb, "measured penalty %d cycles (analytic isolated estimate %.1f for the *average* event);\n",
		r.PenaltyCycles, r.AnalyticPenalty)
	fmt.Fprintf(&sb, "zero-issue refill gap %d cycles (ΔP=%d)\n", r.ZeroCycles, r.FrontEndDepth)
	row := func(label string, tr []uint8) {
		fmt.Fprintf(&sb, "%s ", label)
		for _, v := range tr {
			fmt.Fprintf(&sb, "%d", v)
		}
		sb.WriteByte('\n')
	}
	row("without event:", r.Clean)
	row("with event:   ", r.Dirty)
	sb.WriteString("(issue drains, goes quiet for ~ΔP while the pipeline refills, then ramps — the\npaper's Fig. 7 shape; a single event's exact cost depends on the local\ndependence structure, which is why the model targets the average)\n")
	return sb.String()
}

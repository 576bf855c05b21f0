package experiments

import (
	"fmt"
	"strings"

	"fomodel/internal/core"
)

// Figure13Result is the paper's Fig. 13: two overlapped long data misses
// within ROB distance of each other, showing that the pair costs about
// one isolated penalty (equation 7's y-cancellation).
type Figure13Result struct {
	// PairCycles / IsolatedCycles are the total transient lengths of the
	// overlapped pair and of a single isolated miss, measured from the
	// generated traces.
	PairCycles     int
	IsolatedCycles int
	// Y is the issue stagger between the two loads.
	Y       int
	Machine machineDesc
	Trace   string
}

// machineDesc keeps just the parameters the figure caption needs.
type machineDesc struct {
	MissDelay, ROB int
}

// Figure13 generates the overlapped-pair transient and compares its total
// cost against the isolated transient of Fig. 12.
func Figure13(s *Suite) (*Figure13Result, error) {
	m := s.Machine
	curve := squareLawCurve(m.Width)
	occupancy := m.WindowSize / 2
	const y = 8
	pair := curve.PairedDCacheTransient(float64(m.WindowSize), m.ROBSize, occupancy,
		m.LongMissLatency, y, 3, core.DefaultRampEpsilon)
	single := curve.DCacheTransient(float64(m.WindowSize), m.ROBSize, occupancy,
		m.LongMissLatency, 3, core.DefaultRampEpsilon)
	return &Figure13Result{
		PairCycles:     len(pair),
		IsolatedCycles: len(single),
		Y:              y,
		Machine:        machineDesc{MissDelay: m.LongMissLatency, ROB: m.ROBSize},
		Trace:          renderTransient(pair),
	}, nil
}

// Render prints the pair transient and the equation-(7) comparison.
func (r *Figure13Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 13: two overlapped long data misses (dD=%d, rob=%d, y=%d)\n",
		r.Machine.MissDelay, r.Machine.ROB, r.Y)
	fmt.Fprintf(&sb, "pair transient %d cycles vs isolated %d + %d stagger — the pair costs ≈ one\n",
		r.PairCycles, r.IsolatedCycles, r.Y)
	fmt.Fprintf(&sb, "isolated penalty (eq. 7: the y terms cancel), so each miss costs half\n")
	sb.WriteString(r.Trace)
	return sb.String()
}

// Package iw extracts the IW characteristic — the relationship between
// issue-window size W and average issue rate I — from an instruction trace,
// and fits it to the paper's power law I = alpha * W^beta.
//
// Following §3 of the paper, the characteristic is measured with an
// idealized trace-driven simulation: no miss-events, an unbounded number of
// functional units, unbounded issue and dispatch width, and unit latencies;
// the only limited resource is the issue window. The resulting curve is
// implementation independent — it reflects only the register dependence
// structure of the benchmark. Non-unit latencies are handled afterwards via
// Little's law (I_L = I_1/L), and a finite machine issue width clips the
// curve at saturation (Fig. 6 / Jouppi's observation).
//
// The simulation is not stepped cycle by cycle. In the idealized machine an
// instruction's issue cycle depends only on older instructions, so one
// program-order pass assigns every issue cycle directly:
//
//	issue(i) = max(entry(i), finish(src1), finish(src2))
//
// finish(r) is the cycle the latest older writer of register r makes its
// result available. The pass visits writers in program order, so a table
// of the 64 architectural registers, updated after each instruction's
// sources are read, holds exactly that value: no producer links or
// per-instruction finish array are needed.
//
// An instruction enters the window in the cycle after a slot frees, so
// entry(i) is 1 for i < W and otherwise 1 + the (i−W)-th smallest issue
// cycle (0-indexed) among instructions 0..i−1. Entry cycles never decrease
// and no later instruction issues before one, so a per-cycle issue count
// and a forward pointer give that order statistic in amortized O(1). The
// optional width cap issues oldest first, which is program order: younger
// instructions never take slots from older ones, so an instruction takes the
// first cycle at or after its candidate that still has a free slot. The
// cycle count is the last issue cycle, and a sweep costs O(n + cycles) per
// window size instead of O(cycles × W).
package iw

import (
	"fmt"
	"math"

	"fomodel/internal/isa"
	"fomodel/internal/trace"
)

// Point is one measured point of the IW characteristic.
type Point struct {
	// W is the issue window size in entries.
	W int
	// I is the measured average issue rate (useful instructions per cycle).
	I float64
}

// Options control the idealized simulation.
type Options struct {
	// Latencies, when non-nil, replaces unit latencies with the given
	// table. The paper's Table 1 parameters use unit latencies and fold
	// real latencies in through Little's law; the table is exposed for
	// ablation.
	Latencies *isa.LatencyTable
	// IssueWidth, when positive, caps instructions issued per cycle
	// (oldest first). Zero means unbounded (the paper's ideal case).
	IssueWidth int
}

// unitLatencies is the all-ones table of the paper's idealized simulation,
// built once instead of per window-size run.
var unitLatencies = func() isa.LatencyTable {
	var t isa.LatencyTable
	for c := range t {
		t[c] = 1
	}
	return t
}()

// DefaultWindows is the window-size sweep of the paper's Fig. 4:
// log2(W) from 1 to 6.
func DefaultWindows() []int { return []int{2, 4, 8, 16, 32, 64} }

// Characteristic measures the IW curve of t at each window size. The
// per-cycle scratch buffers are sized once and shared across the window
// sizes.
func Characteristic(t *trace.Trace, windows []int, opts Options) ([]Point, error) {
	if t.Len() == 0 {
		return nil, fmt.Errorf("iw: empty trace %q", t.Name)
	}
	if len(windows) == 0 {
		return nil, fmt.Errorf("iw: no window sizes given")
	}
	for _, w := range windows {
		if w <= 0 {
			return nil, fmt.Errorf("iw: window size %d must be positive", w)
		}
	}
	lat := unitLatencies
	if opts.Latencies != nil {
		lat = *opts.Latencies
		if err := lat.Validate(); err != nil {
			return nil, err
		}
	}
	s := newScratch(t, &lat, opts.IssueWidth)
	points := make([]Point, 0, len(windows))
	for _, w := range windows {
		cycles := s.simulate(t, w, opts.IssueWidth, &lat)
		points = append(points, Point{W: w, I: float64(t.Len()) / float64(cycles)})
	}
	return points, nil
}

// The register finish table of one simulate run: slot r+1 holds the cycle
// the last instruction so far to write register r makes its result
// available (0 before any write). Slot 0 is never written, so a RegNone
// source (-1) reads it as ready, and instructions without a destination
// write the scratch slot noDestSlot, which no source reads. With both
// sentinels the source lookup and the destination write take no branch on
// an absent operand.
const (
	finishSlots = isa.NumArchRegs + 2
	noDestSlot  = finishSlots - 1
)

// scratch holds the buffers one Characteristic call reuses across its
// window sizes.
type scratch struct {
	// issued counts, per cycle, the instructions issued in it (cycle 0 is
	// unused). simulate clears the cycles it used before returning.
	issued []int32
	// skip is used only under a width cap: for a full cycle c, every cycle
	// in [c, skip[c]) is full. It is written when a cycle fills, so stale
	// entries of cycles that are not full are never read.
	skip []int
}

// newScratch sizes the buffers for every window size at once. A cycle in
// which nothing issues lies strictly inside the execution of some issued
// instruction — otherwise the oldest waiting instruction would be ready
// and issue — so a run takes at most the sum of its latencies in cycles,
// and the per-cycle buffers never grow.
func newScratch(t *trace.Trace, lat *isa.LatencyTable, issueWidth int) *scratch {
	cycles := t.Len()
	if *lat != unitLatencies {
		cycles = 0
		for i := range t.Instrs {
			cycles += lat[t.Instrs[i].Class]
		}
	}
	s := &scratch{issued: make([]int32, cycles+2)}
	if issueWidth > 0 {
		s.skip = make([]int, len(s.issued))
	}
	return s
}

// simulate runs the idealized window-limited simulation of t in one
// program-order pass (see the package comment) and returns its cycle count.
func (s *scratch) simulate(t *trace.Trace, window, issueWidth int, lat *isa.LatencyTable) int {
	width := int32(math.MaxInt32)
	if issueWidth > 0 && issueWidth < math.MaxInt32 {
		width = int32(issueWidth)
	}
	issued, skip := s.issued, s.skip
	var finish [finishSlots]int
	// at is the cycle the window's entry order statistic has reached and
	// before counts the issues in cycles before it; those cycles are final.
	at, before := 1, 0
	entry, last := 1, 0
	instrs := t.Instrs
	for i := range instrs {
		in := &instrs[i]
		if i >= window {
			for k := i - window + 1; before+int(issued[at]) < k; at++ {
				before += int(issued[at])
			}
			entry = at + 1
		}
		c := max(entry, finish[int(in.Src1)+1], finish[int(in.Src2)+1])
		for issued[c] >= width {
			next := skip[c]
			if issued[next] >= width {
				next = skip[next]
				skip[c] = next
			}
			c = next
		}
		if issued[c]++; issued[c] == width {
			skip[c] = c + 1
		}
		d := int(in.Dest) + 1
		if d == 0 {
			d = noDestSlot
		}
		finish[d] = c + lat[in.Class]
		last = max(last, c)
	}
	clear(issued[:last+1])
	return last
}

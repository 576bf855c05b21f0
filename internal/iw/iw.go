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
// cycle count is the last issue cycle.
//
// The window sizes differ only in entry(i), so one walk of the trace
// serves them all: each instruction's class, sources and destination are
// decoded once, a chunk of instructions at a time, and every window steps
// through the decoded chunk with its own finish table, forward pointer
// and per-cycle counts. A sweep costs one trace walk plus O(n + cycles)
// per window size, instead of a walk per size or O(cycles × W). The
// counts cover only the cycles a window can still touch, a few times its
// size in latencies, so scratch memory does not grow with the trace.
package iw

import (
	"fmt"
	"math"
	"slices"

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

// Characteristic measures the IW curve of t at each window size, in one
// program-order walk of the trace that feeds every window (see the
// package comment). Windows may repeat and come in any order; the points
// follow their order.
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
	ws := simulate(t, windows, opts.IssueWidth, &lat)
	points := make([]Point, len(windows))
	for k := range ws {
		points[k] = Point{W: windows[k], I: float64(t.Len()) / float64(ws[k].last)}
	}
	return points, nil
}

// The register finish table of one window: slot r+1 holds the cycle the
// last instruction so far to write register r makes its result available
// (0 before any write). Slot 0 is never written, so a RegNone source (-1)
// reads it as ready, and instructions without a destination write the
// scratch slot noDestSlot, which no source reads. With both sentinels the
// source lookup and the destination write take no branch on an absent
// operand.
const (
	finishSlots = isa.NumArchRegs + 2
	noDestSlot  = finishSlots - 1
)

// span is the starting length of a window's per-cycle buffers. A window
// whose live cycles outgrow a third of its buffer gets a longer one.
const span = 1024

// window is one window size's state in the walk.
type window struct {
	size int
	// at is the cycle the window's entry order statistic has reached and
	// before counts the issues in cycles before it; those cycles are final.
	at, before int
	// last is the latest issue cycle so far: the cycle count at the end.
	last int
	// issued counts, per cycle c, the instructions issued in it at
	// issued[c-off]. The live cycles, the only ones the walk still reads
	// or writes, run from at to last+maxLat (see run); off is at most at,
	// and when last+maxLat reaches the end, slide moves them down.
	issued []int32
	off    int
	// skip is used only under a width cap: for a full cycle c, every
	// cycle in [c, skip[c-off]) is full. It is written when a cycle
	// fills, so stale entries of cycles that are not full are never read.
	skip   []int
	finish [finishSlots]int
}

// slide moves w's live cycles to the start of its buffers and zeroes the
// counts after them. A buffer less than three times as long as the live
// cycles is replaced by one that is, so slides stay rare.
func (w *window) slide(maxLat int) {
	live := w.last + maxLat + 1 - w.at
	from := w.at - w.off
	if n := len(w.issued); 3*live > n {
		for 3*live > n {
			n *= 2
		}
		issued := make([]int32, n)
		copy(issued, w.issued[from:])
		w.issued = issued
		if w.skip != nil {
			skip := make([]int, n)
			copy(skip, w.skip[from:])
			w.skip = skip
		}
	} else {
		clear(w.issued[copy(w.issued, w.issued[from:]):])
		if w.skip != nil {
			copy(w.skip, w.skip[from:])
		}
	}
	w.off = w.at
}

// chunk is the number of instructions the walk decodes at a time. Every
// window then steps through the decoded chunk while it sits in L1, with
// its own state in registers.
const chunk = 512

// op is one decoded instruction: its finish-table slots and latency. A
// register outside the table still decodes to a slot past its end, so it
// panics on the lookup as it would undecoded.
type op struct {
	src1, src2, dest uint16
	lat              int32
}

// simulate runs the idealized window-limited simulation of t at every
// window size in one program-order walk (see the package comment) and
// returns each window's final state; last is its cycle count.
func simulate(t *trace.Trace, sizes []int, issueWidth int, lat *isa.LatencyTable) []window {
	width := int32(math.MaxInt32)
	if issueWidth > 0 && issueWidth < math.MaxInt32 {
		width = int32(issueWidth)
	}
	maxLat := slices.Max(lat[:])
	n := span
	for 3*(maxLat+1) > n {
		n *= 2
	}
	ws := make([]window, len(sizes))
	for k, size := range sizes {
		ws[k] = window{size: size, at: 1, off: 1, issued: make([]int32, n)}
		if issueWidth > 0 {
			ws[k].skip = make([]int, n)
		}
	}
	var ops [chunk]op
	for base := 0; base < len(t.Instrs); base += chunk {
		instrs := t.Instrs[base:min(base+chunk, len(t.Instrs))]
		for j := range instrs {
			in := &instrs[j]
			dest := uint16(in.Dest + 1)
			if dest == 0 {
				dest = noDestSlot
			}
			ops[j] = op{src1: uint16(in.Src1 + 1), src2: uint16(in.Src2 + 1), dest: dest, lat: int32(lat[in.Class])}
		}
		for k := range ws {
			ws[k].run(base, ops[:len(instrs)], width, maxLat)
		}
	}
	return ws
}

// run steps w through the decoded instructions base, base+1, ...
//
// An issue cycle is at most last+maxLat: no source finishes later, entry
// is at most last+1, and under a width cap an instruction passes only
// full cycles, which are at most last. Every cycle the pass touches
// therefore lies in [at, last+maxLat], and the buffers slide whenever a
// new last takes last+maxLat past their end.
//
// The loop keeps data-dependent branches out of the common case: with
// unit latencies no cycle up to last is empty, so at moves at most one
// cycle per instruction, which is done without a branch; the loop after
// it runs only past empty cycles. Maxima go through bmax.
func (w *window) run(base int, ops []op, width int32, maxLat int) {
	at, before, last := w.at, w.before, w.last
	issued, skip, off := w.issued, w.skip, w.off
	finish := &w.finish
	for j := range ops {
		o := &ops[j]
		entry := 1
		if i := base + j; i >= w.size {
			want := i - w.size + 1
			x := before + int(issued[at-off])
			step := (x - want) >> 63 // -1 when cycle at holds fewer than want issues
			before += (x - before) & step
			at -= step
			for before+int(issued[at-off]) < want {
				before += int(issued[at-off])
				at++
			}
			entry = at + 1
		}
		c := bmax(bmax(entry, finish[o.src1]), finish[o.src2])
		for issued[c-off] >= width {
			next := skip[c-off]
			if issued[next-off] >= width {
				next = skip[next-off]
				skip[c-off] = next
			}
			c = next
		}
		if issued[c-off]++; issued[c-off] == width {
			skip[c-off] = c + 1
		}
		finish[o.dest] = c + int(o.lat)
		last = bmax(last, c)
		if last+maxLat-off >= len(issued) {
			w.at, w.last = at, last
			w.slide(maxLat)
			issued, skip, off = w.issued, w.skip, w.off
		}
	}
	w.at, w.before, w.last = at, before, last
}

// bmax returns the larger of two cycles, which must differ by less than
// 2^63, without a branch. The compiler turns max into a branch when its
// result feeds a load address, as an issue cycle does, and on these
// data-dependent comparisons that branch mispredicts often enough to
// dominate the walk.
func bmax(a, b int) int {
	d := a - b
	return a - d&(d>>63)
}

package iw

import (
	"fmt"
	"testing"

	"fomodel/internal/isa"
	"fomodel/internal/trace"
	"fomodel/internal/workload"
)

// referenceSimulate is the cycle-by-cycle idealized simulation: each cycle
// it scans the W window slots oldest first, issues every ready instruction
// up to the optional width cap, and refills the freed slots in program
// order. It costs O(cycles × W) and is kept only as the oracle the
// program-order pass is checked against. finish must be zeroed on entry.
func referenceSimulate(t *trace.Trace, window, issueWidth int, lat isa.LatencyTable,
	prod []trace.Producer, finish []int64) (float64, error) {
	n := t.Len()

	// slot is one window entry: the instruction index, its producer
	// indices (-1 if none/ready), and the memoized earliest issue cycle
	// (0 until every producer has issued).
	type slot struct {
		idx        int32
		src1, src2 int32
		readyAt    int64
	}
	win := make([]slot, 0, window)
	next := 0 // fill frontier
	issued := 0
	var now int64 = 1

	fill := func() {
		for len(win) < window && next < n {
			s := slot{idx: int32(next), src1: prod[next].Src1, src2: prod[next].Src2}
			if s.src1 < 0 && s.src2 < 0 {
				s.readyAt = 1 // no producers: ready from the first cycle
			}
			win = append(win, s)
			next++
		}
	}

	// ready memoizes the slot's earliest issue cycle once all producers
	// have issued; finish entries are write-once, so the memo never goes
	// stale.
	ready := func(s *slot) bool {
		if s.readyAt != 0 {
			return s.readyAt <= now
		}
		readyAt := int64(1)
		if s.src1 >= 0 {
			f := finish[s.src1]
			if f == 0 {
				return false
			}
			if f > readyAt {
				readyAt = f
			}
		}
		if s.src2 >= 0 {
			f := finish[s.src2]
			if f == 0 {
				return false
			}
			if f > readyAt {
				readyAt = f
			}
		}
		s.readyAt = readyAt
		return readyAt <= now
	}

	fill()
	for issued < n {
		// Issue every ready instruction this cycle (oldest first), up to
		// the optional width cap.
		kept := win[:0]
		issuedThisCycle := 0
		for i := range win {
			s := &win[i]
			if (issueWidth <= 0 || issuedThisCycle < issueWidth) && ready(s) {
				finish[s.idx] = now + int64(lat.Latency(t.Instrs[s.idx].Class))
				issuedThisCycle++
				issued++
				continue
			}
			kept = append(kept, *s)
		}
		win = kept
		fill()
		now++
	}
	cycles := now - 1
	if cycles <= 0 {
		return 0, fmt.Errorf("iw: degenerate simulation of %q", t.Name)
	}
	return float64(n) / float64(cycles), nil
}

// referenceCharacteristic measures the IW curve with referenceSimulate.
func referenceCharacteristic(tb testing.TB, t *trace.Trace, windows []int, opts Options) []Point {
	tb.Helper()
	prod := opts.Producers
	if prod == nil {
		prod = trace.ComputeProducers(t)
	}
	lat := unitLatencies
	if opts.Latencies != nil {
		lat = *opts.Latencies
	}
	points := make([]Point, 0, len(windows))
	for _, w := range windows {
		ipc, err := referenceSimulate(t, w, opts.IssueWidth, lat, prod, make([]int64, t.Len()))
		if err != nil {
			tb.Fatal(err)
		}
		points = append(points, Point{W: w, I: ipc})
	}
	return points
}

// checkAgainstReference asserts that Characteristic reproduces the
// reference simulation's issue rate exactly at every window size.
func checkAgainstReference(tb testing.TB, t *trace.Trace, windows []int, opts Options) {
	tb.Helper()
	got, err := Characteristic(t, windows, opts)
	if err != nil {
		tb.Fatal(err)
	}
	want := referenceCharacteristic(tb, t, windows, opts)
	for i := range want {
		if got[i] != want[i] {
			tb.Fatalf("%s (n=%d, width %d, latencies %v): W=%d gives I=%v, reference %v",
				t.Name, t.Len(), opts.IssueWidth, opts.Latencies != nil, windows[i], got[i].I, want[i].I)
		}
	}
}

var (
	differentialWindows = []int{1, 2, 3, 4, 8, 16, 32, 64, 128, 256}
	differentialWidths  = []int{0, 1, 2, 4, 8}
)

// latencyChoices are the unit table (nil) and the paper's baseline table.
func latencyChoices() []*isa.LatencyTable {
	def := isa.DefaultLatencies()
	return []*isa.LatencyTable{nil, &def}
}

// TestMatchesReferenceBuiltins compares the program-order pass with the
// cycle-by-cycle oracle on every built-in workload, across window sizes,
// issue-width caps and both latency tables.
func TestMatchesReferenceBuiltins(t *testing.T) {
	n := 30000
	if testing.Short() {
		n = 3000
	}
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr, err := workload.Generate(name, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			prod := trace.ComputeProducers(tr)
			for _, width := range differentialWidths {
				for _, lat := range latencyChoices() {
					checkAgainstReference(t, tr, differentialWindows,
						Options{IssueWidth: width, Latencies: lat, Producers: prod})
				}
			}
		})
	}
}

// TestMatchesReferenceEdgeCases covers the shapes the built-ins do not:
// a single instruction, windows as large as the trace, pure chains,
// independent streams and caller-supplied producer links.
func TestMatchesReferenceEdgeCases(t *testing.T) {
	gzip, err := workload.Generate("gzip", 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Links that ignore the register fields: every instruction waits for
	// the one three before it, whatever it reads.
	strided := make([]trace.Producer, gzip.Len())
	for i := range strided {
		strided[i] = trace.Producer{Src1: int32(i - 3), Src2: -1}
		if i < 3 {
			strided[i].Src1 = -1
		}
	}
	cases := []struct {
		name    string
		tr      *trace.Trace
		windows []int
		prod    []trace.Producer
	}{
		{"single", chainTrace(1), []int{1, 2, 64}, nil},
		{"window>=n", gzip, []int{499, 500, 501, 4096}, nil},
		{"window=1", gzip, []int{1}, nil},
		{"chain", chainTrace(700), []int{1, 2, 3, 64, 1024}, nil},
		{"independent", independentTrace(700), []int{1, 2, 3, 64, 1024}, nil},
		{"producers", gzip, differentialWindows, strided},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, width := range differentialWidths {
				for _, lat := range latencyChoices() {
					checkAgainstReference(t, c.tr, c.windows,
						Options{IssueWidth: width, Latencies: lat, Producers: c.prod})
				}
			}
		})
	}
}

// FuzzCharacteristic decodes arbitrary bytes into a small trace, a window,
// an issue-width cap and a latency table, and checks the program-order
// pass against the cycle-by-cycle oracle.
func FuzzCharacteristic(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{127, 0, 8, 1, 1, 0xff, 0xff, 2, 0, 0, 0, 3, 1, 1, 1})
	f.Add([]byte{1, 2, 4, 2, 7, 3, 1, 9, 5, 5, 5, 5, 6, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		window := 1 + int(data[0])%128
		width := int(data[1]) % 9
		var lat *isa.LatencyTable
		switch data[2] % 3 {
		case 1:
			def := isa.DefaultLatencies()
			lat = &def
		case 2:
			// Latencies drawn from the input, 1..16 cycles per class.
			var tab isa.LatencyTable
			for c := range tab {
				tab[c] = 1 + int(data[3]>>(c%4))%16
			}
			lat = &tab
		}
		// Each instruction takes four bytes: class, destination and two
		// sources over eight registers, where a high bit means no register.
		body := data[4:]
		n := min(512, len(body)/4)
		if n == 0 {
			return
		}
		reg := func(b byte) int16 {
			if b&0x80 != 0 {
				return isa.RegNone
			}
			return int16(b % 8)
		}
		tr := &trace.Trace{Name: "fuzz"}
		for i := 0; i < n; i++ {
			b := body[4*i : 4*i+4]
			tr.Instrs = append(tr.Instrs, trace.Instruction{
				PC: uint64(4 * i), Class: isa.Class(b[0] % byte(isa.NumClasses)),
				Dest: reg(b[1]), Src1: reg(b[2]), Src2: reg(b[3]),
			})
		}
		checkAgainstReference(t, tr, []int{window}, Options{IssueWidth: width, Latencies: lat})
	})
}

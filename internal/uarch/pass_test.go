package uarch

import (
	"runtime"
	"testing"

	"fomodel/internal/cache"
	"fomodel/internal/isa"
	"fomodel/internal/rng"
	"fomodel/internal/stats"
	"fomodel/internal/trace"
)

// TestPassMemoryIndependentOfCycles runs a dependence chain whose every
// latency sits just under MaxLatency: each link retires inside the
// deadlock horizon, so the run completes, after ~5·10^7 cycles. The pass
// must match the scan and allocate only a few MiB — a buffer with an
// entry per cycle would need tens of MiB.
func TestPassMemoryIndependentOfCycles(t *testing.T) {
	tr := chain(50)
	cfg := testConfig()
	cfg.Latencies[isa.ALU] = MaxLatency - 8
	preps := make([]stats.Event, tr.Len())

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := pass(tr, cfg, preps)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 50*int64(MaxLatency-8) {
		t.Fatalf("chain ran %d cycles, want at least %d", res.Cycles, 50*int64(MaxLatency-8))
	}
	const bound = 4 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("pass allocated %d bytes over %d cycles, want at most %d", got, res.Cycles, bound)
	}
	checkAgainstReference(t, "long chain", tr, cfg, preps)
}

// handRun simulates instrs with the given miss events on cfg, requires
// the pass to match the scan, and returns the scan's result.
func handRun(t *testing.T, instrs []trace.Instruction, events []stats.Event, cfg Config) *Result {
	t.Helper()
	tr := &trace.Trace{Name: "hand", Instrs: instrs}
	checkAgainstReference(t, "hand", tr, cfg, events)
	res, err := reference(tr, cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOverlapCountersAtBoundaries pins MispredictsOverlapped and
// ICacheOverlapped on hand-built traces where the answer hinges on the
// order of stages within a cycle or on an instruction younger than the
// one being counted. The counts are the scan's; the pass must agree.
func TestOverlapCountersAtBoundaries(t *testing.T) {
	cfg := testConfig()
	cfg.IdealICache, cfg.IdealDCache, cfg.IdealPredictor = false, false, false
	alu := func(dest, src int16) trace.Instruction {
		return trace.Instruction{PC: hotPC, Class: isa.ALU, Dest: dest, Src1: src, Src2: isa.RegNone}
	}
	load := func(dest int16) trace.Instruction {
		return trace.Instruction{PC: hotPC, Class: isa.Load, Addr: 0x8000, Dest: dest, Src1: isa.RegNone, Src2: isa.RegNone}
	}
	branch := func(src int16) trace.Instruction {
		return trace.Instruction{PC: hotPC, Class: isa.Branch, Dest: isa.RegNone, Src1: src, Src2: isa.RegNone}
	}
	div := trace.Instruction{PC: hotPC, Class: isa.Div, Dest: 1, Src1: isa.RegNone, Src2: isa.RegNone}
	longMiss := stats.NewEvent(cache.Hit, cache.LongMiss, false, false)
	misp := stats.EventMispredict

	cases := []struct {
		name       string
		instrs     []trace.Instruction
		events     []stats.Event
		misp, icov uint64
	}{{
		// The branch waits 12 cycles on the divide. The younger load is
		// independent and would issue long before the branch, but fetch
		// stops at the mispredicted branch, so the load is fetched only
		// after the branch resolves: nothing is outstanding then.
		name:   "younger long miss behind a mispredicted branch",
		instrs: []trace.Instruction{div, branch(1), load(2)},
		events: []stats.Event{0, misp, longMiss},
	}, {
		// Load and branch issue in the same cycle; the older load goes
		// first and is outstanding when the branch issues.
		name:   "older long miss in the branch's cycle",
		instrs: []trace.Instruction{load(2), branch(isa.RegNone)},
		events: []stats.Event{longMiss, misp},
		misp:   1,
	}, {
		// The younger load is fetched only once the branch resolves, so
		// it cannot share the branch's issue cycle.
		name:   "younger long miss after the branch",
		instrs: []trace.Instruction{branch(isa.RegNone), load(2)},
		events: []stats.Event{misp, longMiss},
	}, {
		// The branch consumes the load: it issues in the cycle the data
		// returns, when the miss no longer counts as outstanding.
		name:   "branch on the returning miss",
		instrs: []trace.Instruction{load(2), branch(2)},
		events: []stats.Event{longMiss, misp},
	}}
	// I-cache misses at instruction m of a stream that starts with a long
	// load. Fetch reaches instruction m in cycle 1 + m/4. The load issues
	// in cycle 7, before fetch runs in that cycle.
	for _, c := range []struct {
		name string
		m    int
		icov uint64
	}{
		{"I-cache miss charged before the long miss issues", 20, 0},
		{"I-cache miss charged in the long miss's issue cycle", 24, 1},
		{"I-cache miss charged while the long miss is outstanding", 40, 1},
	} {
		instrs := []trace.Instruction{load(2)}
		events := []stats.Event{longMiss}
		for i := 1; i <= 60; i++ {
			instrs = append(instrs, alu(int16(3+i%8), isa.RegNone))
			events = append(events, 0)
		}
		events[c.m] = stats.NewEvent(cache.ShortMiss, cache.Hit, false, false)
		cases = append(cases, struct {
			name       string
			instrs     []trace.Instruction
			events     []stats.Event
			misp, icov uint64
		}{c.name, instrs, events, 0, c.icov})
	}
	for _, c := range cases {
		res := handRun(t, c.instrs, c.events, cfg)
		if res.MispredictsOverlapped != c.misp || res.ICacheOverlapped != c.icov {
			t.Errorf("%s: overlapped mispredicts %d, I-cache misses %d; want %d, %d",
				c.name, res.MispredictsOverlapped, res.ICacheOverlapped, c.misp, c.icov)
		}
	}
}

// TestPassRegisterSentinels pins the register tables' sentinel slots on
// a two-cluster machine whose bypass costs 600 cycles, against the scan:
// a RegNone source and a never-written register are ready at once and
// charge no bypass, and an instruction without a destination — a store
// or a branch, here of latency 300 — never changes a register's ready
// cycle. Instructions alternate clusters, so a wrong sentinel shows as a
// run of over 600 cycles.
func TestPassRegisterSentinels(t *testing.T) {
	cfg := testConfig()
	cfg.Clusters, cfg.BypassLatency = 2, 600
	cfg.Latencies[isa.Store], cfg.Latencies[isa.Branch] = 300, 300
	none := isa.RegNone
	alu := func(dest, src1, src2 int16) trace.Instruction {
		return trace.Instruction{PC: hotPC, Class: isa.ALU, Dest: dest, Src1: src1, Src2: src2}
	}
	noDest := func(class isa.Class) trace.Instruction {
		return trace.Instruction{PC: hotPC, Class: class, Addr: 0x8000, Dest: none, Src1: none, Src2: none}
	}
	for _, c := range []struct {
		name   string
		instrs []trace.Instruction
	}{
		{"RegNone sources", []trace.Instruction{alu(0, none, none), alu(1, none, none)}},
		{"never-written registers", []trace.Instruction{alu(0, none, none), alu(1, 63, 5)}},
		{"store, then RegNone sources", []trace.Instruction{noDest(isa.Store), alu(1, none, none)}},
		{"branch, then RegNone sources", []trace.Instruction{noDest(isa.Branch), alu(1, none, none)}},
		{"store between a write and its read", []trace.Instruction{alu(63, none, none), noDest(isa.Store), alu(2, 63, none)}},
		{"branch between a write and its read", []trace.Instruction{alu(63, none, none), noDest(isa.Branch), alu(2, none, 63)}},
	} {
		res := handRun(t, c.instrs, make([]stats.Event, len(c.instrs)), cfg)
		if res.Cycles >= int64(cfg.BypassLatency) {
			t.Errorf("%s: %d cycles, want under the %d-cycle bypass", c.name, res.Cycles, cfg.BypassLatency)
		}
	}
}

// TestIssueSlotsZeroOutsideWindow drives issueSlots the way the pass
// does — issues at ring cycles and past the horizon, frontier moves of
// every size, far cycles moving into the ring — on a clustered,
// FU-capped layout, and checks the invariant the pass's slot lookup
// rests on: after every advance, every slot holding no live cycle reads
// zero in total, byClass and byCluster. It also checks the window
// occupancy and the issue histogram against a map of the issues, and
// that a reset of the dirty scratch zeroes every slot.
func TestIssueSlotsZeroOutsideWindow(t *testing.T) {
	const window, clusters = 16, 2
	var s issueSlots
	hist := make([]int64, window+1)
	s.reset(window, clusters, true, hist)
	ring := int(s.mask) + 1

	issued := map[int64]int64{} // live cycle -> issues
	want := make([]int64, window+1)
	issue := func(c int64, class, cl int) {
		var slot int
		if c < s.horizon {
			slot = int(c & s.mask)
			s.live[slot>>6] |= 1 << (slot & 63)
		} else {
			slot = s.claimFar(c)
		}
		s.total[slot]++
		s.byClass[slot*isa.NumClasses+class]++
		s.byCluster[slot*clusters+cl]++
		s.inWindow[cl]++
		issued[c]++
	}
	advance := func(f int64) {
		s.advance(f)
		for c, n := range issued {
			if c < f {
				want[n]++
				delete(issued, c)
			}
		}
	}
	check := func(step int) {
		t.Helper()
		held := map[int]bool{}
		for _, f := range s.far {
			held[int(f.slot)] = true
		}
		for slot := range s.total {
			if slot < ring && s.live[slot>>6]&(1<<(slot&63)) != 0 || held[slot] {
				continue
			}
			nonzero := s.total[slot] != 0
			for _, n := range s.byClass[slot*isa.NumClasses : (slot+1)*isa.NumClasses] {
				nonzero = nonzero || n != 0
			}
			for _, n := range s.byCluster[slot*clusters : (slot+1)*clusters] {
				nonzero = nonzero || n != 0
			}
			if nonzero {
				t.Fatalf("step %d: slot %d holds no live cycle but reads nonzero", step, slot)
			}
		}
		var inWindow int64
		for _, n := range issued {
			inWindow += n
		}
		if got := int64(s.inWindow[0] + s.inWindow[1]); got != inWindow {
			t.Fatalf("step %d: window holds %d issues, want %d", step, got, inWindow)
		}
	}

	r := rng.New(7)
	sawFar, sawMove := false, false
	for step := 0; step < 20000; step++ {
		if s.inWindow[0]+s.inWindow[1] < window && r.Intn(3) > 0 {
			var c int64
			switch r.Intn(8) {
			case 0:
				c = s.horizon + r.Int63n(3*int64(ring))
				sawFar = true
			case 1:
				c = s.frontier + r.Int63n(int64(ring))
			default:
				c = s.frontier + r.Int63n(6)
			}
			issue(c, r.Intn(isa.NumClasses), r.Intn(clusters))
			continue
		}
		farBefore := len(s.far)
		switch r.Intn(6) {
		case 0:
			advance(s.frontier + int64(ring) + r.Int63n(2*int64(ring)))
		case 1:
			if len(issued) > 0 {
				advance(s.earliest() + 1)
				break
			}
			fallthrough
		default:
			advance(s.frontier + 1 + r.Int63n(4))
		}
		sawMove = sawMove || len(s.far) < farBefore
		check(step)
	}
	if !sawFar || !sawMove {
		t.Fatalf("walk never reached the far list (%v) or moved a far cycle (%v)", sawFar, sawMove)
	}

	// The end of a run counts the live cycles and leaves the idle rest.
	const cycles = 1 << 40
	want[0] = cycles
	for _, n := range issued {
		want[n]++
	}
	for _, n := range want[1:] {
		want[0] -= n
	}
	s.flush(cycles)
	for k := range want {
		if hist[k] != want[k] {
			t.Fatalf("issue histogram %v, want %v", hist, want)
		}
	}

	// Reset the scratch as the pool hands it on, dirty, to a smaller
	// window.
	if len(issued) == 0 {
		t.Fatal("walk ended with an empty window; the reset below checks nothing")
	}
	s.reset(window/2, clusters, true, make([]int64, window+1))
	clear(issued)
	for _, w := range s.live {
		if w != 0 {
			t.Fatal("reset left a live slot")
		}
	}
	check(-1)
}

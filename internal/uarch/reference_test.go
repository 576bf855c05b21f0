package uarch

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fomodel/internal/cache"
	"fomodel/internal/isa"
	"fomodel/internal/rng"
	"fomodel/internal/trace"
	"fomodel/internal/workload"
)

// refEntry is one issue-window slot of the reference simulator: the
// instruction index, the indices of its producers (-1 when an operand is
// ready at dispatch), the instruction's class and steered cluster, and
// the memoized earliest issue cycle (0 until every producer has issued).
type refEntry struct {
	idx        int32
	src1, src2 int32
	class      uint8
	cluster    uint8
	readyAt    int64
}

// referenceRun is the cycle-by-cycle timing simulation with a full window
// scan: every cycle it walks all window slots oldest first and issues the
// ready ones under the width, FU, cluster and in-order caps. It costs
// O(cycles × window) and is kept only as the oracle run's event-driven
// issue stage is checked against; both must return identical Results,
// errors included, for every Config.
func referenceRun(t *trace.Trace, cfg Config, preps []prep, prod []trace.Producer) (*Result, error) {
	n := t.Len()
	res := &Result{
		Instructions:   n,
		IssueHistogram: make([]int64, cfg.Width+1),
	}
	finish := make([]int64, n)
	feCap := cfg.FrontEndDepth*cfg.Width + cfg.FetchBufferSize
	feReady := make([]int64, feCap)
	window := make([]refEntry, 0, cfg.WindowSize)
	clusters := cfg.Clusters
	if clusters < 1 {
		clusters = 1
	}
	clusterWidth := cfg.Width / clusters
	clusterWindow := cfg.WindowSize / clusters
	bypass := int64(cfg.BypassLatency)
	winCount := make([]int, clusters)
	issuedByCluster := make([]int, clusters)
	var outstanding []int64

	var (
		cycle      int64 = 1
		fetched    int   // next instruction to fetch
		dispatched int   // next instruction to dispatch
		retired    int   // next instruction to retire
		robCount   int

		// fetchStallUntil blocks fetch for I-cache misses; fetchHalted
		// blocks it for an in-flight mispredicted branch, cleared when
		// branchResume (set at the branch's issue) passes.
		fetchStallUntil int64
		fetchHalted     bool
		branchResume    int64

		// chargedFetch is the highest instruction index whose I-cache
		// miss has already been charged; fetch is in order, so comparing
		// against it charges each miss exactly once without mutating the
		// shared preps.
		chargedFetch = -1

		// dispSlot/fetchSlot are dispatched%feCap and fetched%feCap kept
		// as rolling ring indices so the hot loops avoid the division.
		dispSlot  int
		fetchSlot int

		lastRetireCycle int64 = 1
	)

	latBranch := int64(cfg.Latencies.Latency(isa.Branch))

	for retired < n {
		// --- Retire (in order, up to Width finished instructions).
		for k := 0; k < cfg.Width && retired < dispatched; k++ {
			f := finish[retired]
			if f == 0 || f > cycle {
				break
			}
			retired++
			robCount--
			lastRetireCycle = cycle
		}

		// Prune completed long misses.
		live := outstanding[:0]
		for _, f := range outstanding {
			if f > cycle {
				live = append(live, f)
			}
		}
		outstanding = live

		// --- Issue (oldest first, up to Width ready instructions; at
		// most FUCounts[class] per class where limited, and at most
		// Width/Clusters per cluster when partitioned).
		issuedThisCycle := 0
		// nextReady is the earliest known ready cycle among entries that
		// were blocked purely on operand readiness this cycle; it bounds
		// the next possible issue when the cycle turns out quiescent.
		var nextReady int64
		var issuedByClass [isa.NumClasses]int
		for c := range issuedByCluster {
			issuedByCluster[c] = 0
		}
		if len(window) > 0 {
			kept := window[:0]
			stalled := false
			for wi := range window {
				e := &window[wi]
				class := e.class
				cluster := int(e.cluster)
				ok := !stalled &&
					issuedThisCycle < cfg.Width &&
					(clusters == 1 || issuedByCluster[cluster] < clusterWidth) &&
					(cfg.FUCounts[class] == 0 || issuedByClass[class] < cfg.FUCounts[class])
				if ok {
					// Check the memoized ready cycle inline — most slots
					// hit it every cycle while waiting — and fall back to
					// the producer scan only until it is computed.
					r := e.readyAt
					if r == 0 {
						ok = refEntryReady(e, finish, cycle, clusters, bypass)
						r = e.readyAt // memoized by the call when computable
					} else {
						ok = r <= cycle
					}
					if !ok && r != 0 && (nextReady == 0 || r < nextReady) {
						nextReady = r
					}
				}
				if !ok {
					// kept is a prefix of window; while no entry has
					// issued the slot is already in place, so extend
					// instead of copying the entry onto itself.
					if len(kept) == wi {
						kept = window[:wi+1]
					} else {
						kept = append(kept, *e)
					}
					// In-order issue stalls at the first instruction
					// that cannot go, whatever the reason.
					stalled = stalled || cfg.InOrder
					continue
				}
				idx := int(e.idx)
				in := &t.Instrs[idx]
				lat := int64(cfg.Latencies.Latency(in.Class))
				if in.IsMem() && preps[idx].tlbMiss {
					lat += int64(cfg.TLB.MissLatency)
					res.TLBMisses++
				}
				if in.IsMem() && !cfg.IdealDCache {
					switch preps[idx].dres {
					case cache.ShortMiss:
						lat += int64(cfg.Hierarchy.ShortMissLatency)
						res.DCacheShort++
					case cache.LongMiss:
						if cfg.SerializeLongMisses && len(outstanding) > 0 {
							// Demoted to a hit for the isolation study.
							break
						}
						lat += int64(cfg.Hierarchy.LongMissLatency)
						res.DCacheLong++
						outstanding = append(outstanding, cycle+lat)
					}
				}
				finish[idx] = cycle + lat
				issuedThisCycle++
				issuedByClass[class]++
				issuedByCluster[cluster]++
				winCount[cluster]--
				if in.Class == isa.Branch && preps[idx].misp && !cfg.IdealPredictor {
					res.Mispredicts++
					if len(outstanding) > 0 {
						res.MispredictsOverlapped++
					}
					branchResume = cycle + latBranch
				}
			}
			window = kept
		}
		res.IssueHistogram[issuedThisCycle]++
		if cfg.RecordIssueTrace && len(res.IssueTrace) < 1<<22 {
			res.IssueTrace = append(res.IssueTrace, uint8(issuedThisCycle))
		}

		// --- Dispatch (in order, up to Width; the steered cluster's
		// window slice, the whole window, and the ROB must have room).
		prevDispatched, prevFetched, prevCharged := dispatched, fetched, chargedFetch
		for k := 0; k < cfg.Width && dispatched < fetched; k++ {
			cl := 0
			if clusters > 1 {
				cl = dispatched % clusters
			}
			if feReady[dispSlot] > cycle ||
				len(window) >= cfg.WindowSize || robCount >= cfg.ROBSize ||
				(clusters > 1 && winCount[cl] >= clusterWindow) {
				break
			}
			e := refEntry{
				idx:     int32(dispatched),
				src1:    prod[dispatched].Src1,
				src2:    prod[dispatched].Src2,
				class:   uint8(t.Instrs[dispatched].Class),
				cluster: uint8(cl),
			}
			if e.src1 < 0 && e.src2 < 0 {
				e.readyAt = 1 // no producers: ready from the first cycle
			}
			window = append(window, e)
			winCount[cl]++
			robCount++
			dispatched++
			if dispSlot++; dispSlot == feCap {
				dispSlot = 0
			}
		}

		// --- Fetch (up to Width, subject to miss-event throttles).
		if fetchHalted && branchResume > 0 && cycle >= branchResume {
			fetchHalted = false
			branchResume = 0
		}
		if !fetchHalted && cycle >= fetchStallUntil {
			for k := 0; k < cfg.Width && fetched < n && fetched-dispatched < feCap; k++ {
				in := &t.Instrs[fetched]
				if !cfg.IdealICache && fetched > chargedFetch && preps[fetched].ires != cache.Hit {
					// The missing instruction (and everything after it)
					// arrives only after the miss delay; charge it once,
					// recording the charge so the retry after the stall
					// proceeds.
					delay := int64(cfg.Hierarchy.Latency(preps[fetched].ires))
					if preps[fetched].ires == cache.ShortMiss {
						res.ICacheShort++
					} else {
						res.ICacheLong++
					}
					if len(outstanding) > 0 {
						res.ICacheOverlapped++
					}
					chargedFetch = fetched
					fetchStallUntil = cycle + delay
					break
				}
				feReady[fetchSlot] = cycle + int64(cfg.FrontEndDepth)
				if fetchSlot++; fetchSlot == feCap {
					fetchSlot = 0
				}
				fetched++
				if in.Class == isa.Branch && preps[fetched-1].misp && !cfg.IdealPredictor {
					// Fetch of useful instructions stops until the
					// branch resolves at issue.
					fetchHalted = true
					branchResume = 0
					break
				}
			}
		}

		res.WindowOccupancySum += uint64(len(window))
		res.ROBOccupancySum += uint64(robCount)
		res.FrontEndOccupancySum += uint64(fetched - dispatched)

		// --- Quiescence fast-forward. If this cycle retired, issued,
		// dispatched, fetched, and charged nothing, the machine state is
		// frozen and the next cycle where anything can change is exactly
		// computable: the oldest instruction's completion (retire), the
		// earliest known operand-ready cycle (issue), the front end's
		// next dispatch-ready slot, and the pending fetch throttles.
		// Every skipped cycle would have been an exact replay of this
		// one, so bulk-accumulate its per-cycle statistics and jump.
		// Producer-blocked window entries (readyAt still 0) need an
		// issue first, so they are covered by the issue candidate chain;
		// window/ROB-full dispatch stalls likewise need an issue or
		// retire first.
		if issuedThisCycle == 0 && lastRetireCycle != cycle &&
			dispatched == prevDispatched && fetched == prevFetched && chargedFetch == prevCharged {
			next := int64(0)
			consider := func(c int64) {
				if c > cycle && (next == 0 || c < next) {
					next = c
				}
			}
			if retired < dispatched {
				consider(finish[retired]) // 0 (unissued) is ignored
			}
			consider(nextReady)
			if dispatched < fetched {
				consider(feReady[dispSlot])
			}
			if fetchHalted {
				consider(branchResume)
			} else {
				consider(fetchStallUntil)
			}
			// Never jump past the deadlock horizon: the idle check below
			// must fire at the same cycle it would without skipping. A
			// cycle with no future event at all is a deadlock; jumping
			// straight to the horizon reports it immediately.
			horizon := lastRetireCycle + maxIdleCycles + 1
			if next == 0 || next > horizon {
				next = horizon
			}
			if skip := next - cycle - 1; skip > 0 {
				res.IssueHistogram[0] += skip
				if cfg.RecordIssueTrace {
					for i := int64(0); i < skip && len(res.IssueTrace) < 1<<22; i++ {
						res.IssueTrace = append(res.IssueTrace, 0)
					}
				}
				res.WindowOccupancySum += uint64(len(window)) * uint64(skip)
				res.ROBOccupancySum += uint64(robCount) * uint64(skip)
				res.FrontEndOccupancySum += uint64(fetched-dispatched) * uint64(skip)
				cycle += skip
			}
		}

		if cycle-lastRetireCycle > maxIdleCycles {
			return nil, fmt.Errorf("uarch: no retirement for %d cycles at cycle %d (retired %d/%d) — machine deadlocked",
				maxIdleCycles, cycle, retired, n)
		}
		cycle++
	}

	res.Cycles = cycle - 1
	return res, nil
}

// refEntryReady reports whether every producer of e has finished by now,
// memoizing the entry's earliest issue cycle once all producers have
// issued. With clustering, an operand produced in a different cluster
// arrives bypass cycles later.
func refEntryReady(e *refEntry, finish []int64, now int64, clusters int, bypass int64) bool {
	if e.readyAt != 0 {
		return e.readyAt <= now
	}
	readyAt := int64(1)
	if e.src1 >= 0 {
		f := finish[e.src1]
		if f == 0 {
			return false
		}
		if clusters > 1 && int(e.src1)%clusters != int(e.cluster) {
			f += bypass
		}
		if f > readyAt {
			readyAt = f
		}
	}
	if e.src2 >= 0 {
		f := finish[e.src2]
		if f == 0 {
			return false
		}
		if clusters > 1 && int(e.src2)%clusters != int(e.cluster) {
			f += bypass
		}
		if f > readyAt {
			readyAt = f
		}
	}
	e.readyAt = readyAt
	return readyAt <= now
}

// checkAgainstReference runs the event-driven run and the scanning oracle
// on the same inputs and requires identical Results, or identical errors.
func checkAgainstReference(t *testing.T, name string, tr *trace.Trace, cfg Config, preps []prep, prod []trace.Producer) {
	t.Helper()
	got, gotErr := run(tr, cfg, preps, prod)
	want, wantErr := referenceRun(tr, cfg, preps, prod)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, oracle %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result differs from the oracle\n got  %+v\n want %+v", name, got, want)
	}
}

// namedConfig is one machine of the differential grid.
type namedConfig struct {
	name string
	cfg  Config
}

// differentialConfigs spans every timing-side knob of Config: the sweep
// ranges of widths, windows, ROBs and depths, in-order issue, clusters
// with bypass, FU caps, the fetch buffer, the TLB, the isolation and
// ideal toggles, issue tracing, and latencies past the wheel's horizon.
func differentialConfigs() []namedConfig {
	var out []namedConfig
	add := func(name string, mutate func(c *Config)) {
		c := DefaultConfig()
		mutate(&c)
		out = append(out, namedConfig{name, c})
	}
	add("base", func(*Config) {})
	for w := 1; w <= 8; w++ {
		add(fmt.Sprintf("width%d", w), func(c *Config) { c.Width = w })
	}
	for _, win := range []int{8, 16, 32, 64, 96, 128} {
		add(fmt.Sprintf("window%d", win), func(c *Config) {
			c.WindowSize = win
			c.ROBSize = max(c.ROBSize, win)
		})
	}
	for _, rob := range []int{48, 64, 100, 192, 256} {
		add(fmt.Sprintf("rob%d", rob), func(c *Config) { c.ROBSize = rob })
	}
	for _, d := range []int{2, 9, 20} {
		add(fmt.Sprintf("depth%d", d), func(c *Config) { c.FrontEndDepth = d })
	}
	add("inorder", func(c *Config) { c.InOrder = true })
	add("inorder-width1", func(c *Config) { c.InOrder, c.Width = true, 1 })
	add("clusters2", func(c *Config) { c.Clusters, c.BypassLatency = 2, 1 })
	add("clusters4", func(c *Config) { c.Clusters, c.BypassLatency = 4, 3 })
	add("clusters2-nobypass", func(c *Config) { c.Clusters = 2 })
	add("fu-caps", func(c *Config) {
		c.FUCounts[isa.Load], c.FUCounts[isa.ALU], c.FUCounts[isa.Mul] = 1, 2, 1
	})
	add("fetch-buffer", func(c *Config) { c.FetchBufferSize = 16 })
	add("tlb", func(c *Config) {
		tlb := cache.DefaultTLB()
		c.TLB = &tlb
	})
	add("serialize", func(c *Config) { c.SerializeLongMisses = true })
	add("ideal-icache", func(c *Config) { c.IdealICache = true })
	add("ideal-dcache", func(c *Config) { c.IdealDCache = true })
	add("ideal-predictor", func(c *Config) { c.IdealPredictor = true })
	add("ideal-all", func(c *Config) { c.IdealICache, c.IdealDCache, c.IdealPredictor = true, true, true })
	add("issue-trace", func(c *Config) { c.RecordIssueTrace = true })
	add("inorder-clusters-fu", func(c *Config) {
		c.InOrder, c.Clusters, c.BypassLatency = true, 2, 2
		c.FUCounts[isa.Load] = 1
	})
	add("everything", func(c *Config) {
		tlb := cache.DefaultTLB()
		c.Width, c.WindowSize, c.ROBSize = 8, 64, 96
		c.Clusters, c.BypassLatency = 4, 2
		c.FUCounts[isa.Load], c.FUCounts[isa.Branch] = 2, 1
		c.FetchBufferSize, c.TLB, c.RecordIssueTrace = 8, &tlb, true
	})
	add("past-horizon", func(c *Config) {
		tlb := cache.DefaultTLB()
		tlb.MissLatency = 900
		c.TLB = &tlb
		c.Hierarchy.LongMissLatency = 1500
		c.Latencies[isa.Div] = 700
		c.Clusters, c.BypassLatency = 2, 600
	})
	return out
}

// TestRunMatchesReference compares run with the scanning oracle on every
// built-in workload across the differential config grid.
func TestRunMatchesReference(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 3000
	}
	configs := differentialConfigs()
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr, err := workload.Generate(name, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			prod := trace.ComputeProducers(tr)
			for _, nc := range configs {
				if err := nc.cfg.Validate(); err != nil {
					t.Fatalf("%s: %v", nc.name, err)
				}
				preps, err := classify(tr, nc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstReference(t, nc.name, tr, nc.cfg, preps, prod)
			}
		})
	}
}

// TestSimulateWithEventsMatchesReference drives run through
// SimulateWithEvents with synthetic events, denser than any built-in's,
// including TLB misses.
func TestSimulateWithEventsMatchesReference(t *testing.T) {
	tr, err := workload.Generate("gcc", 5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	events := make([]Event, tr.Len())
	preps := make([]prep, tr.Len())
	for i := range events {
		ev := Event{ICache: cache.Result(r.Intn(3)), DCache: cache.Result(r.Intn(3)),
			Mispredict: r.Bool(0.1), TLBMiss: r.Bool(0.05)}
		events[i] = ev
		preps[i] = prep{ires: ev.ICache, dres: ev.DCache, misp: ev.Mispredict, tlbMiss: ev.TLBMiss}
	}
	prod := trace.ComputeProducers(tr)
	for _, nc := range differentialConfigs() {
		cfg := nc.cfg
		if cfg.TLB == nil {
			tlb := cache.DefaultTLB()
			cfg.TLB = &tlb
		}
		got, err := SimulateWithEvents(tr, events, cfg)
		if err != nil {
			t.Fatalf("%s: %v", nc.name, err)
		}
		want, err := referenceRun(tr, cfg, preps, prod)
		if err != nil {
			t.Fatalf("%s: oracle: %v", nc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: result differs from the oracle\n got  %+v\n want %+v", nc.name, got, want)
		}
	}
}

// TestRunDeadlockMatchesReference checks that a machine which cannot
// retire within maxIdleCycles fails with the oracle's exact error.
func TestRunDeadlockMatchesReference(t *testing.T) {
	tr := chain(50)
	cfg := testConfig()
	cfg.Latencies[isa.ALU] = maxIdleCycles
	preps, err := classify(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(tr, cfg, preps, trace.ComputeProducers(tr)); err == nil || !strings.Contains(err.Error(), "deadlocked") {
		t.Fatalf("want a deadlock error, got %v", err)
	}
	checkAgainstReference(t, "deadlock", tr, cfg, preps, trace.ComputeProducers(tr))
}

// FuzzRun decodes arbitrary bytes into a small machine, a trace and its
// miss events, and checks run against the scanning oracle. The header
// covers clusters with bypass, in-order issue, FU caps, the TLB, the
// fetch buffer, and latencies past the wheel's horizon.
func FuzzRun(f *testing.F) {
	f.Add([]byte{3, 47, 80, 4, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{7, 15, 0, 2, 0x21, 0x9, 0x3, 0xff, 0x80, 5, 0, 0x80, 0x80, 0x1a, 4, 1, 0, 0x80, 0x04})
	f.Add([]byte{1, 3, 1, 0, 0xff, 0x2, 0xff, 0x10, 0x40, 6, 1, 1, 1, 0x3f, 3, 2, 2, 2, 0x24, 2, 3, 3, 3, 0x08})
	f.Fuzz(func(t *testing.T, data []byte) {
		const header = 9
		if len(data) < header {
			return
		}
		cfg := DefaultConfig()
		cfg.Width = 1 + int(data[0])%8
		cfg.WindowSize = 1 + int(data[1])%64
		cfg.ROBSize = cfg.WindowSize + int(data[2])%200
		cfg.FrontEndDepth = 1 + int(data[3])%8
		flags := data[4]
		cfg.InOrder = flags&1 != 0
		cfg.IdealICache = flags&2 != 0
		cfg.IdealDCache = flags&4 != 0
		cfg.IdealPredictor = flags&8 != 0
		cfg.SerializeLongMisses = flags&16 != 0
		cfg.RecordIssueTrace = flags&32 != 0
		if flags&64 != 0 {
			cfg.FetchBufferSize = 1 + int(data[3]>>4)
		}
		if flags&128 != 0 {
			cfg.TLB = &cache.TLBConfig{Entries: 4, PageBytes: 4096, MissLatency: 1 + 8*int(data[8])}
		}
		if c := []int{1, 2, 4}[int(data[5]&3)%3]; cfg.Width%c == 0 && cfg.WindowSize%c == 0 {
			cfg.Clusters, cfg.BypassLatency = c, int(data[5]>>2)
		}
		for c := isa.Class(0); c < isa.NumClasses; c++ {
			if data[6]>>c&1 != 0 {
				cfg.FUCounts[c] = 1 + int(c)%2
			}
			cfg.Latencies[c] = 1 + int(data[7]>>(c%4))%16
		}
		// Long misses from 1 to 2041 cycles: past the wheel's horizon.
		cfg.Hierarchy.LongMissLatency = 1 + 8*int(data[8])
		cfg.Hierarchy.ShortMissLatency = 1 + int(data[8])%16
		if err := cfg.Validate(); err != nil {
			t.Fatalf("decoded an invalid config: %v", err)
		}

		// Each instruction takes five bytes: class, destination and two
		// sources over eight registers (a high bit means no register),
		// and its miss events.
		body := data[header:]
		n := min(256, len(body)/5)
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
		preps := make([]prep, n)
		for i := 0; i < n; i++ {
			b := body[5*i : 5*i+5]
			in := trace.Instruction{
				PC: uint64(4 * i), Class: isa.Class(b[0] % byte(isa.NumClasses)),
				Dest: reg(b[1]), Src1: reg(b[2]), Src2: reg(b[3]),
			}
			tr.Instrs = append(tr.Instrs, in)
			ev := b[4]
			preps[i].ires = cache.Result(ev & 3 % 3)
			if in.IsMem() {
				preps[i].dres = cache.Result(ev >> 2 & 3 % 3)
				preps[i].tlbMiss = cfg.TLB != nil && ev&0x40 != 0
			}
			preps[i].misp = in.Class == isa.Branch && ev&0x10 != 0
		}
		checkAgainstReference(t, "fuzz", tr, cfg, preps, trace.ComputeProducers(tr))
	})
}

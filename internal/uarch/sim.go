package uarch

import (
	"fmt"
	"math/bits"
	"sync"

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

// scratch holds the per-run working buffers. Runs borrow one from
// scratchPool and return it on exit, so a sweep of many simulations reuses
// the same arenas instead of reallocating them per config; each pool entry
// is only ever used by one run at a time, so the reuse is race-free.
type scratch struct {
	finish          []int64
	feReady         []int64
	outstanding     []int64
	winCount        []int
	issuedByCluster []int
	sched           sched
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// operandsReady returns the first cycle instruction i may issue, once
// every producer in p has issued: the latest producer finish, where an
// operand produced in another cluster arrives bypass cycles later.
func operandsReady(i int, p trace.Producer, finish []int64, clusters int, bypass int64) int64 {
	at := int64(1)
	if p.Src1 >= 0 {
		f := finish[p.Src1]
		if clusters > 1 && int(p.Src1)%clusters != i%clusters {
			f += bypass
		}
		at = max(at, f)
	}
	if p.Src2 >= 0 {
		f := finish[p.Src2]
		if clusters > 1 && int(p.Src2)%clusters != i%clusters {
			f += bypass
		}
		at = max(at, f)
	}
	return at
}

// run executes the timing simulation proper. preps and prod are read-only
// and may be shared with concurrent runs.
func run(t *trace.Trace, cfg Config, preps []prep, prod []trace.Producer) (*Result, error) {
	n := t.Len()
	res := &Result{
		Instructions:   n,
		IssueHistogram: make([]int64, cfg.Width+1),
	}

	sc := scratchPool.Get().(*scratch)

	// finish[i] is the cycle instruction i's result becomes available;
	// 0 means not yet issued (cycles start at 1).
	finish := grown(sc.finish, n)

	// Front-end pipeline: instructions [dispatched, fetched) are in
	// flight; feReady is a ring of their dispatch-ready cycles. An
	// optional fetch buffer adds capacity beyond the pipeline stages.
	feCap := cfg.FrontEndDepth*cfg.Width + cfg.FetchBufferSize
	feReady := grown(sc.feReady, feCap)

	// The issue window is held by the scheduler (see sched): waiting
	// instructions sit on wakeup lists or in the timing wheel, ready
	// ones in a bitset over the ROB ring.
	s := &sc.sched
	s.reset(cfg.ROBSize, cfg.WindowSize)
	ringMask := s.ringMask
	readyWords := len(s.ready)

	// Clustering (§7 extension #3): instructions steer round-robin to
	// clusters by dispatch order, so an instruction's cluster is simply
	// its index mod the cluster count.
	clusters := cfg.Clusters
	if clusters < 1 {
		clusters = 1
	}
	clusterWidth := cfg.Width / clusters
	clusterWindow := cfg.WindowSize / clusters
	bypass := int64(cfg.BypassLatency)
	winCount := grown(sc.winCount, clusters)
	issuedByCluster := grown(sc.issuedByCluster, clusters)

	// outstanding holds the finish cycles of in-flight long data misses,
	// for overlap accounting and the serialize option. Pre-sized so
	// d-miss-heavy benchmarks (mcf) never grow it in the hot loop.
	outstanding := sc.outstanding[:0]
	if cap(outstanding) < 64 {
		outstanding = make([]int64, 0, 64)
	}

	defer func() {
		sc.finish, sc.feReady = finish, feReady
		sc.outstanding, sc.winCount, sc.issuedByCluster = outstanding, winCount, issuedByCluster
		scratchPool.Put(sc)
	}()

	var (
		cycle      int64 = 1
		fetched    int   // next instruction to fetch
		dispatched int   // next instruction to dispatch
		retired    int   // next instruction to retire
		robCount   int
		winLen     int // dispatched, not yet issued
		// inOrderNext is the next instruction to issue under InOrder:
		// issue is in program order there, so the window is exactly
		// [inOrderNext, dispatched).
		inOrderNext int

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
		// Width/Clusters per cluster when partitioned). The ready bitset
		// is walked in program order from the oldest in-flight
		// instruction, wrapping once around the ring.
		s.advance(cycle)
		issuedThisCycle := 0
		var issuedByClass [isa.NumClasses]int
		clear(issuedByCluster)
		base := retired & ringMask
		w0 := base >> 6
	scan:
		for k := 0; k <= readyWords; k++ {
			wi := (w0 + k) & (readyWords - 1)
			word := s.ready[wi]
			switch k {
			case 0:
				word &= ^uint64(0) << (base & 63)
			case readyWords:
				word &= 1<<(base&63) - 1
			}
			for word != 0 {
				slot := wi<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				idx := retired + (slot-retired)&ringMask
				// In-order issue stalls at the first instruction that
				// cannot go, whatever the reason.
				if cfg.InOrder && idx != inOrderNext {
					break scan
				}
				in := &t.Instrs[idx]
				class := in.Class
				cluster := 0
				if clusters > 1 {
					cluster = idx % clusters
					if issuedByCluster[cluster] >= clusterWidth {
						if cfg.InOrder {
							break scan
						}
						continue
					}
				}
				if cfg.FUCounts[class] != 0 && issuedByClass[class] >= cfg.FUCounts[class] {
					if cfg.InOrder {
						break scan
					}
					continue
				}
				s.ready[wi] &^= 1 << (slot & 63)
				lat := int64(cfg.Latencies.Latency(class))
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
				winLen--
				inOrderNext = idx + 1
				if class == isa.Branch && preps[idx].misp && !cfg.IdealPredictor {
					res.Mispredicts++
					if len(outstanding) > 0 {
						res.MispredictsOverlapped++
					}
					branchResume = cycle + latBranch
				}
				// Wake the dependents. lat ≥ 1, so none of them can be
				// ready before the next cycle.
				for e := s.wakeHead[slot]; e != 0; {
					edge := int(e - 1)
					e = s.edgeNext[edge]
					cs := edge >> 1
					if s.pending[cs]--; s.pending[cs] == 0 {
						c := retired + (cs-retired)&ringMask
						s.schedule(cs, operandsReady(c, prod[c], finish, clusters, bypass), cycle)
					}
				}
				s.wakeHead[slot] = 0
				if issuedThisCycle == cfg.Width {
					break scan
				}
			}
		}
		res.IssueHistogram[issuedThisCycle]++
		if cfg.RecordIssueTrace && len(res.IssueTrace) < 1<<22 {
			res.IssueTrace = append(res.IssueTrace, uint8(issuedThisCycle))
		}

		// --- Dispatch (in order, up to Width; the steered cluster's
		// window slice, the whole window, and the ROB must have room).
		// An instruction whose producers have all issued is scheduled at
		// its ready cycle; otherwise it waits on the unissued ones.
		prevDispatched, prevFetched, prevCharged := dispatched, fetched, chargedFetch
		for k := 0; k < cfg.Width && dispatched < fetched; k++ {
			cl := 0
			if clusters > 1 {
				cl = dispatched % clusters
			}
			if feReady[dispSlot] > cycle ||
				winLen >= cfg.WindowSize || robCount >= cfg.ROBSize ||
				(clusters > 1 && winCount[cl] >= clusterWindow) {
				break
			}
			slot := dispatched & ringMask
			p := prod[dispatched]
			if p.Src1 >= 0 && finish[p.Src1] == 0 {
				s.waitOn(slot, 0, p.Src1)
			}
			if p.Src2 >= 0 && finish[p.Src2] == 0 {
				s.waitOn(slot, 1, p.Src2)
			}
			if s.pending[slot] == 0 {
				s.schedule(slot, operandsReady(dispatched, p, finish, clusters, bypass), cycle)
			}
			winLen++
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

		res.WindowOccupancySum += uint64(winLen)
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
			consider(s.nextEvent(cycle))
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
				res.WindowOccupancySum += uint64(winLen) * uint64(skip)
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

// newPredictor instantiates the configured predictor: the spec when
// given, otherwise the default gshare with the given index width.
func newPredictor(spec *predictor.Spec, bits uint) (predictor.Predictor, error) {
	if spec != nil {
		return spec.New()
	}
	return predictor.NewGshare(bits)
}

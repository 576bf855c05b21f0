package uarch

import (
	"fmt"

	"fomodel/internal/cache"
	"fomodel/internal/isa"
	"fomodel/internal/stats"
	"fomodel/internal/trace"
)

// scanEntry is one issue-window slot of scan: the instruction index, the
// indices of its producers (-1 when an operand is ready at dispatch), the
// instruction's class and steered cluster, and the memoized earliest
// issue cycle (0 until every producer has issued).
type scanEntry struct {
	idx        int32
	src1, src2 int32
	class      uint8
	cluster    uint8
	readyAt    int64
}

// scan is the cycle-by-cycle timing simulation with a full window scan:
// every cycle it retires, issues, dispatches and fetches, in that order,
// and its issue stage walks all window slots oldest first, issuing the
// ready ones under the width, FU, cluster and in-order caps. It costs
// O(cycles × window) and is the oracle the program-order pass is tested
// against: both return identical Results, errors included. It charges
// every event in preps and ignores SerializeLongMisses; stacked counts
// the long misses it charged while another was outstanding.
func scan(t *trace.Trace, cfg Config, preps []stats.Event) (res *Result, stacked uint64, err error) {
	n := t.Len()
	res = &Result{
		Instructions:   n,
		IssueHistogram: make([]int64, cfg.Width+1),
	}
	finish := make([]int64, n)
	feCap := cfg.FrontEndDepth*cfg.Width + cfg.FetchBufferSize
	feReady := make([]int64, feCap)
	window := make([]scanEntry, 0, cfg.WindowSize)
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

	// lastWriter holds, per register, the index of the latest dispatched
	// instruction to write it, or -1: dispatch is in program order, so
	// it resolves each source's producer.
	var lastWriter [isa.NumArchRegs]int32
	for r := range lastWriter {
		lastWriter[r] = -1
	}
	producer := func(r int16) int32 {
		if r < 0 {
			return -1
		}
		return lastWriter[r]
	}

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
						ok = entryReady(e, finish, cycle, clusters, bypass)
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
				if in.IsMem() && preps[idx].TLBMiss() {
					lat += int64(cfg.TLB.MissLatency)
					res.TLBMisses++
				}
				if in.IsMem() && !cfg.IdealDCache {
					switch preps[idx].DCache() {
					case cache.ShortMiss:
						lat += int64(cfg.Hierarchy.ShortMissLatency)
						res.DCacheShort++
					case cache.LongMiss:
						if len(outstanding) > 0 {
							stacked++
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
				if in.Class == isa.Branch && preps[idx].Mispredict() && !cfg.IdealPredictor {
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
			in := &t.Instrs[dispatched]
			e := scanEntry{
				idx:     int32(dispatched),
				src1:    producer(in.Src1),
				src2:    producer(in.Src2),
				class:   uint8(in.Class),
				cluster: uint8(cl),
			}
			if e.src1 < 0 && e.src2 < 0 {
				e.readyAt = 1 // no producers: ready from the first cycle
			}
			if in.Dest >= 0 {
				lastWriter[in.Dest] = int32(dispatched)
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
				if !cfg.IdealICache && fetched > chargedFetch && preps[fetched].ICache() != cache.Hit {
					// The missing instruction (and everything after it)
					// arrives only after the miss delay; charge it once,
					// recording the charge so the retry after the stall
					// proceeds.
					delay := int64(cfg.Hierarchy.Latency(preps[fetched].ICache()))
					if preps[fetched].ICache() == cache.ShortMiss {
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
				if in.Class == isa.Branch && preps[fetched-1].Mispredict() && !cfg.IdealPredictor {
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
			return nil, stacked, fmt.Errorf("uarch: no retirement for %d cycles at cycle %d (retired %d/%d) — machine deadlocked",
				maxIdleCycles, cycle, retired, n)
		}
		cycle++
	}

	res.Cycles = cycle - 1
	return res, stacked, nil
}

// entryReady reports whether every producer of e has finished by now,
// memoizing the entry's earliest issue cycle once all producers have
// issued. With clustering, an operand produced in a different cluster
// arrives bypass cycles later.
func entryReady(e *scanEntry, finish []int64, now int64, clusters int, bypass int64) bool {
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

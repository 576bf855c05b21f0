package uarch

import (
	"fmt"
	"math/bits"
	"sync"

	"fomodel/internal/cache"
	"fomodel/internal/isa"
	"fomodel/internal/stats"
	"fomodel/internal/trace"
)

// minIssueSlots is the issue-slot ring's smallest size. It covers the
// baseline's longest waits, chains of long data misses included, so the
// far list stays empty unless a config stretches the latencies.
const minIssueSlots = 1024

// run executes the timing simulation proper. preps is read-only and may
// be shared with concurrent runs. SerializeLongMisses runs the pass on a
// copy of preps that keeps only the long misses leading an eq. 8 group
// (stats.IsolateLongMisses).
func run(t *trace.Trace, cfg Config, preps []stats.Event) (*Result, error) {
	if cfg.SerializeLongMisses {
		preps = stats.IsolateLongMisses(t, preps, cfg.ROBSize)
	}
	return pass(t, cfg, preps)
}

// passScratch holds the per-run working buffers of pass. Runs borrow one
// from passPool and return it on exit, so a sweep of many simulations
// reuses the same arenas instead of reallocating them per config; each
// pool entry is only ever used by one run at a time, so the reuse is
// race-free. Every buffer is O(ROB + front end + window + width),
// whatever the trace length or the latencies: none is indexed by
// instruction, and none by cycle except the fixed-size slot ring.
type passScratch struct {
	dispatchAt []int64
	retireAt   []int64
	long       []missSpan
	slots      issueSlots
	events     [numEventKeys]event
	keys       [numEventKeys]int64
	// The width rings: the fetch, dispatch and retire cycles of the last
	// Width instructions.
	fetchLast, dispLast, retireLast [MaxWidth]int64
}

// The register tables of one pass: slot r+1 holds the cycle the latest
// instruction so far to write register r makes its result available,
// and that instruction's cluster. Slot 0 is never written, so a RegNone
// source (-1) reads it as ready, from cluster -1, which charges no
// bypass; instructions without a destination write the scratch slot
// noDestSlot, which no source reads. These are internal/iw's sentinels.
const (
	regSlots   = isa.NumArchRegs + 2
	noDestSlot = regSlots - 1
)

var passPool = sync.Pool{New: func() any { return new(passScratch) }}

// missSpan is one long data miss: its issue cycle and the cycle its data
// returns.
type missSpan struct{ issue, finish int64 }

// pass runs the timing simulation as one program-order pass: it assigns
// each instruction its fetch, dispatch, issue and retire cycle from the
// cycles of older instructions alone. That is exact because every stage
// is in order except issue, and issue is oldest first, so a younger
// instruction never takes a slot an older one could use; every latency
// is at least one cycle, so nothing issued in a cycle can wake another
// instruction in that cycle. Within a cycle the stages run retire,
// issue, dispatch, fetch, so a slot freed by one stage is usable by the
// next stage in the same cycle.
//
// Per instruction, the pass reads its trace record, its event byte and
// the register tables: an operand is ready when the register's latest
// writer so far finishes. Each in-order stage keeps a ring of its last
// Width cycles; as the stage's cycles never decrease, "at most Width per
// cycle" is exactly cycle[i] ≥ cycle[i−Width] + 1.
//
// Per-cycle results come out as interval sums: an instruction spends
// dispatch−fetch cycles in the front end, issue−dispatch in the window,
// and retire−dispatch in the ROB. The issue histogram is kept per issued
// cycle; cycles in which nothing issued make up the rest of the run.
func pass(t *trace.Trace, cfg Config, preps []stats.Event) (*Result, error) {
	n := t.Len()
	width := cfg.Width
	res := &Result{
		Instructions:   n,
		IssueHistogram: make([]int64, width+1),
	}
	hist := res.IssueHistogram

	sc := passPool.Get().(*passScratch)

	// Clustering (§7 extension #3): instructions steer round-robin to
	// clusters by dispatch order, so an instruction's cluster is simply
	// its index mod the cluster count, and each cluster has its own
	// slice of the window.
	clusters := max(cfg.Clusters, 1)
	clusterWidth := width / clusters
	clusterWindow := cfg.WindowSize / clusters
	bypass := int64(cfg.BypassLatency)
	fuCapped := cfg.FUCounts != [isa.NumClasses]int{}

	// dispatchAt and retireAt are rings of the dispatch cycles of the
	// last feCap instructions and the retire cycles of the last ROBSize:
	// instruction i may be fetched once i−feCap has left the front end,
	// and dispatched once i−ROBSize has retired. A zero entry (no such
	// instruction) bounds nothing.
	feCap := cfg.FrontEndDepth*width + cfg.FetchBufferSize
	dispatchAt := grown(sc.dispatchAt, feCap)
	retireAt := grown(sc.retireAt, cfg.ROBSize)
	// long lists the long data misses a later overlap query may still
	// see (see outstandingAt).
	long := sc.long[:0]
	slots := &sc.slots
	slots.reset(cfg.WindowSize, clusters, fuCapped)
	events, keys := &sc.events, &sc.keys
	buildEvents(events, cfg)
	clear(keys[:])
	fetchLast, dispLast, retireLast := sc.fetchLast[:width], sc.dispLast[:width], sc.retireLast[:width]
	clear(fetchLast)
	clear(dispLast)
	clear(retireLast)
	var regFinish [regSlots]int64
	var regCluster [regSlots]int8
	for r := range regCluster {
		regCluster[r] = -1
	}

	defer func() {
		sc.dispatchAt, sc.retireAt = dispatchAt, retireAt
		sc.long = long
		passPool.Put(sc)
	}()

	var (
		// Each in-order stage remembers the cycle of its last
		// instruction; its width ring, indexed by w, holds the cycle of
		// the instruction Width before.
		fetchCycle, dispCycle, retireCycle int64 = 1, 1, 1
		w                                  int

		// resume is the first cycle fetch may run after a mispredicted
		// branch: the branch stops fetch until it resolves at issue.
		resume int64
		// lastIssue is the previous instruction's issue cycle, the floor
		// of in-order issue.
		lastIssue int64

		feSlot, robSlot, cl int
		longPrune           = 64
	)
	depth := int64(cfg.FrontEndDepth)
	latBranch := int64(cfg.Latencies.Latency(isa.Branch))

	for i, p := range preps[:n] {
		in := &t.Instrs[i]

		key := int(in.Class) | int(p)<<3
		keys[key]++
		ev := &events[key]

		// --- Fetch: up to Width per cycle, once the front end has room
		// and fetch is not halted. An I-cache miss is charged in the
		// cycle fetch reaches the instruction, which arrives the miss
		// delay later.
		f := max(fetchCycle, fetchLast[w]+1, resume, dispatchAt[feSlot])
		if ev.fetch != 0 {
			var hit bool
			if long, hit = outstandingAt(long, f); hit {
				res.ICacheOverlapped++
			}
			f += int64(ev.fetch)
		}
		fetchCycle, fetchLast[w] = f, f

		// --- Dispatch: in order, up to Width per cycle, DeltaP cycles
		// after fetch, once the ROB and the cluster's window slice have
		// room. The window has room at the first cycle by which all but
		// clusterWindow−1 of the slice's entries have issued.
		d := max(f+depth, dispCycle, dispLast[w]+1, retireAt[robSlot])
		if d >= slots.frontier {
			slots.advance(d + 1)
		}
		for slots.inWindow[cl] >= clusterWindow {
			d = slots.earliest()
			slots.advance(d + 1)
		}
		dispCycle, dispLast[w] = d, d
		dispatchAt[feSlot] = d
		if feSlot++; feSlot == feCap {
			feSlot = 0
		}

		// --- Issue: the first cycle after dispatch, with the operands
		// ready, whose width, FU-class and cluster slots older
		// instructions have left room in. An operand produced in
		// another cluster arrives bypass cycles later.
		class := in.Class
		s1, s2 := int(in.Src1)+1, int(in.Src2)+1
		r1, r2 := regFinish[s1], regFinish[s2]
		if clusters > 1 {
			if c := regCluster[s1]; c >= 0 && int(c) != cl {
				r1 += bypass
			}
			if c := regCluster[s2]; c >= 0 && int(c) != cl {
				r2 += bypass
			}
		}
		e := max(d+1, r1, r2)
		if cfg.InOrder {
			e = max(e, lastIssue)
		}
		var s int
		for {
			if s = slots.find(e); s < 0 {
				s = slots.claim(e)
				break
			}
			if int(slots.total[s]) < width &&
				(!fuCapped || cfg.FUCounts[class] == 0 || int(slots.byClass[s*isa.NumClasses+int(class)]) < cfg.FUCounts[class]) &&
				(clusters == 1 || int(slots.byCluster[s*clusters+cl]) < clusterWidth) {
				break
			}
			e++
		}
		// hist[0] goes negative by one per cycle that issues anything;
		// adding the cycle count at the end leaves the idle cycles.
		k := slots.total[s]
		hist[k]--
		hist[k+1]++
		slots.total[s] = k + 1
		if fuCapped {
			slots.byClass[s*isa.NumClasses+int(class)]++
		}
		if clusters > 1 {
			slots.byCluster[s*clusters+cl]++
		}
		slots.inWindow[cl]++
		if cfg.RecordIssueTrace && e <= 1<<22 {
			for int64(len(res.IssueTrace)) < e {
				res.IssueTrace = append(res.IssueTrace, 0)
			}
			res.IssueTrace[e-1]++
		}
		lastIssue = e

		x := e + int64(ev.lat)
		dest := int(in.Dest) + 1
		if dest == 0 {
			dest = noDestSlot
		}
		regFinish[dest], regCluster[dest] = x, int8(cl)
		if ev.kind != 0 {
			if ev.kind == longMiss {
				if len(long) >= longPrune {
					// No later query looks before this fetch cycle.
					long, _ = outstandingAt(long, f)
					longPrune = max(64, 2*len(long))
				}
				long = append(long, missSpan{e, x})
			} else {
				var hit bool
				if long, hit = outstandingAt(long, e); hit {
					res.MispredictsOverlapped++
				}
				resume = e + latBranch
			}
		}

		// --- Retire: in order, up to Width per cycle, once finished.
		r := max(x, retireCycle, retireLast[w]+1)
		if r > retireCycle+maxIdleCycles+1 {
			return nil, fmt.Errorf("uarch: no retirement for %d cycles at cycle %d (retired %d/%d) — machine deadlocked",
				maxIdleCycles, retireCycle+maxIdleCycles+1, i, n)
		}
		retireCycle, retireLast[w] = r, r
		retireAt[robSlot] = r
		if robSlot++; robSlot == cfg.ROBSize {
			robSlot = 0
		}

		if w++; w == width {
			w = 0
		}
		if cl++; cl == clusters {
			cl = 0
		}
		res.FrontEndOccupancySum += uint64(d - f)
		res.WindowOccupancySum += uint64(e - d)
		res.ROBOccupancySum += uint64(r - d)
	}

	res.Cycles = retireCycle
	hist[0] += res.Cycles
	countEvents(res, events, keys)
	if cfg.RecordIssueTrace {
		for int64(len(res.IssueTrace)) < min(res.Cycles, 1<<22) {
			res.IssueTrace = append(res.IssueTrace, 0)
		}
	}
	return res, nil
}

// numEventKeys is the number of distinct event keys. An instruction's
// key is its class in bits 0-2 and its stats.Event above them: the I-side
// and D-side cache.Result in bits 3-4 and 5-6, the mispredict flag in
// bit 7 and the TLB-miss flag in bit 8.
const numEventKeys = 1 << 9

// Event kinds that need more than a latency.
const (
	longMiss   = 1 // a long data miss, tracked for overlap accounting
	mispredict = 2 // a mispredicted branch, which stops fetch until it issues
)

// The miss-event counters of Result an event adds to.
const (
	countICacheShort = 1 << iota
	countICacheLong
	countDCacheShort
	countDCacheLong
	countTLBMiss
	countMispredict
)

// event is what one event key costs on a machine: the I-cache miss delay
// charged at fetch (0 on a hit), the execution latency with every data
// miss penalty, the kind of event it is, if any, and the Result counters
// it adds to.
type event struct {
	fetch, lat   int32
	kind, counts uint8
}

// buildEvents fills the event table for cfg. Every latency is at most
// MaxLatency, so the sums fit an int32.
func buildEvents(events *[numEventKeys]event, cfg Config) {
	for k := range events {
		class, p := isa.Class(k&7), stats.Event(k>>3)
		ires, dres := p.ICache(), p.DCache()
		misp, tlbMiss := p.Mispredict(), p.TLBMiss()
		ev := event{}
		if class < isa.NumClasses {
			ev.lat = int32(cfg.Latencies.Latency(class))
		}
		if !cfg.IdealICache {
			switch ires {
			case cache.ShortMiss:
				ev.fetch, ev.counts = int32(cfg.Hierarchy.ShortMissLatency), countICacheShort
			case cache.LongMiss:
				ev.fetch, ev.counts = int32(cfg.Hierarchy.LongMissLatency), countICacheLong
			}
		}
		mem := class == isa.Load || class == isa.Store
		if mem && tlbMiss && cfg.TLB != nil {
			ev.lat += int32(cfg.TLB.MissLatency)
			ev.counts |= countTLBMiss
		}
		if mem && !cfg.IdealDCache {
			switch dres {
			case cache.ShortMiss:
				ev.lat += int32(cfg.Hierarchy.ShortMissLatency)
				ev.counts |= countDCacheShort
			case cache.LongMiss:
				ev.lat += int32(cfg.Hierarchy.LongMissLatency)
				ev.kind = longMiss
				ev.counts |= countDCacheLong
			}
		}
		if class == isa.Branch && misp && !cfg.IdealPredictor {
			ev.kind = mispredict
			ev.counts |= countMispredict
		}
		events[k] = ev
	}
}

// countEvents adds up the miss-event counters of res from the number of
// instructions with each event key: a counter depends only on the key
// and the machine, not on timing.
func countEvents(res *Result, events *[numEventKeys]event, keys *[numEventKeys]int64) {
	counters := [...]*uint64{
		&res.ICacheShort, &res.ICacheLong, &res.DCacheShort, &res.DCacheLong, &res.TLBMisses, &res.Mispredicts,
	}
	for k, n := range keys {
		for bit, counter := range counters {
			if events[k].counts&(1<<bit) != 0 {
				*counter += uint64(n)
			}
		}
	}
}

// outstandingAt reports whether a long miss in long is outstanding at
// cycle c — issued at or before c and not yet returned — and drops the
// misses that have returned by c. Overlap queries come in program order
// at nondecreasing cycles, so a dropped miss is never needed again: an
// I-cache miss is charged no earlier than the previous fetch, a branch
// issues after its own fetch, and fetch after a mispredicted branch waits
// for it to issue. For the same reason a younger long miss can never be
// outstanding at an older query: it is fetched after the query's cycle.
func outstandingAt(long []missSpan, c int64) ([]missSpan, bool) {
	kept, hit := long[:0], false
	for _, m := range long {
		if m.finish > c {
			kept = append(kept, m)
			hit = hit || m.issue <= c
		}
	}
	return kept, hit
}

// issueSlots counts, per cycle, the instructions issued in it: in
// total, per class when FUs are capped, and per cluster. Only cycles at
// or after the frontier — the cycle after the current dispatch — are
// live: no later instruction can issue before it. The issues at live
// cycles are exactly the instructions in the window, so inWindow, their
// count per cluster, is the window's occupancy, and moving the frontier
// past a cycle takes its issues out of the window.
//
// A ring indexed by cycle, with a bitset of its live slots, covers
// [frontier, horizon); a cycle at or past the horizon is kept in the far
// list until the frontier brings it within range. There are at most
// WindowSize live cycles, so the far list draws its storage from
// WindowSize spare slots past the ring. Memory is thus O(window),
// whatever the latencies or the run's cycle count.
type issueSlots struct {
	mask      int64
	frontier  int64
	horizon   int64    // frontier + ring size
	live      []uint64 // ring slots holding a live cycle
	total     []uint8
	byClass   []uint8 // slot*isa.NumClasses + class
	byCluster []uint8 // slot*clusters + cluster
	inWindow  []int   // per cluster: issues at live cycles
	classes   bool    // byClass is in use
	clusters  int

	far    []farSlot
	farMin int64   // earliest far cycle; 0 when far is empty
	free   []int32 // spare slots for far cycles
}

// farSlot is a live cycle beyond the ring's horizon and the spare slot
// holding its counts.
type farSlot struct {
	cycle int64
	slot  int32
}

// grown returns buf resized to n zeroed entries, reallocating only when
// the capacity is insufficient.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// reset sizes the counters for a window and cluster count and empties
// them, reusing the previous run's buffers where they fit.
func (s *issueSlots) reset(window, clusters int, byClass bool) {
	ring := minIssueSlots
	for ring < window {
		ring <<= 1
	}
	slots := ring + window
	s.mask, s.frontier, s.horizon = int64(ring-1), 1, int64(ring)+1
	s.classes, s.clusters = byClass, clusters
	s.live = grown(s.live, ring/64)
	s.total = grown(s.total, slots)
	if byClass {
		s.byClass = grown(s.byClass, slots*isa.NumClasses)
	}
	if clusters > 1 {
		s.byCluster = grown(s.byCluster, slots*clusters)
	}
	s.inWindow = grown(s.inWindow, clusters)
	s.far, s.farMin = s.far[:0], 0
	s.free = s.free[:0]
	for k := slots - 1; k >= ring; k-- {
		s.free = append(s.free, int32(k))
	}
}

// find returns the slot holding cycle c's counts, or -1 when nothing has
// issued in c. c must not lie before the frontier.
func (s *issueSlots) find(c int64) int {
	if c < s.horizon {
		r := c & s.mask
		if s.live[r>>6]&(1<<(r&63)) != 0 {
			return int(r)
		}
		return -1
	}
	for _, f := range s.far {
		if f.cycle == c {
			return int(f.slot)
		}
	}
	return -1
}

// claim returns a zeroed slot for cycle c, which has none yet.
func (s *issueSlots) claim(c int64) int {
	var slot int
	if c < s.horizon {
		slot = int(c & s.mask)
		s.live[slot>>6] |= 1 << (slot & 63)
	} else {
		slot = int(s.free[len(s.free)-1])
		s.free = s.free[:len(s.free)-1]
		s.far = append(s.far, farSlot{c, int32(slot)})
		if s.farMin == 0 || c < s.farMin {
			s.farMin = c
		}
	}
	s.total[slot] = 0
	if s.classes {
		clear(s.byClass[slot*isa.NumClasses : (slot+1)*isa.NumClasses])
	}
	if s.clusters > 1 {
		clear(s.byCluster[slot*s.clusters : (slot+1)*s.clusters])
	}
	return slot
}

// nextLive returns the first live ring cycle in [c, end), or end when
// there is none; end must not exceed the horizon.
func (s *issueSlots) nextLive(c, end int64) int64 {
	for c < end {
		r := c & s.mask
		if w := s.live[r>>6] >> (r & 63); w != 0 {
			return min(c+int64(bits.TrailingZeros64(w)), end)
		}
		c += 64 - r&63
	}
	return end
}

// earliest returns the earliest live cycle. The window must hold at
// least one instruction.
func (s *issueSlots) earliest() int64 {
	if c := s.nextLive(s.frontier, s.horizon); c < s.horizon {
		return c
	}
	return s.farMin
}

// retire takes the issues counted in slot out of the window.
func (s *issueSlots) retire(slot int) {
	if s.clusters == 1 {
		s.inWindow[0] -= int(s.total[slot])
		return
	}
	for k, n := range s.byCluster[slot*s.clusters : (slot+1)*s.clusters] {
		s.inWindow[k] -= int(n)
	}
}

// advance moves the frontier to f, which lies past it: the cycles it
// passes leave the window, and the far cycles that come within the
// ring's reach move into it.
func (s *issueSlots) advance(f int64) {
	end := min(f, s.horizon)
	for c := s.nextLive(s.frontier, end); c < end; c = s.nextLive(c+1, end) {
		r := int(c & s.mask)
		s.retire(r)
		s.live[r>>6] &^= 1 << (r & 63)
	}
	s.frontier, s.horizon = f, f+s.mask+1
	if s.farMin == 0 || s.farMin >= s.horizon {
		return
	}
	kept := s.far[:0]
	s.farMin = 0
	for _, e := range s.far {
		switch from := int(e.slot); {
		case e.cycle >= s.horizon:
			kept = append(kept, e)
			if s.farMin == 0 || e.cycle < s.farMin {
				s.farMin = e.cycle
			}
			continue
		case e.cycle < f:
			s.retire(from)
		default:
			r := int(e.cycle & s.mask)
			s.live[r>>6] |= 1 << (r & 63)
			s.total[r] = s.total[from]
			if s.classes {
				copy(s.byClass[r*isa.NumClasses:(r+1)*isa.NumClasses], s.byClass[from*isa.NumClasses:])
			}
			if s.clusters > 1 {
				copy(s.byCluster[r*s.clusters:(r+1)*s.clusters], s.byCluster[from*s.clusters:])
			}
		}
		s.free = append(s.free, e.slot)
	}
	s.far = kept
}

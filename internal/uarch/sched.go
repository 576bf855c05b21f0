package uarch

import "math/bits"

// minWheelBuckets is the timing wheel's smallest size. It covers the
// baseline's longest single wait — a TLB walk plus a long data miss on
// top of a class latency — so the overflow list stays empty unless a
// config stretches the latencies.
const minWheelBuckets = 512

// farEvent is an entry whose ready cycle lies beyond the wheel's horizon.
type farEvent struct {
	at   int64
	slot int32
}

// sched is run's event-driven issue scheduler. Every in-flight
// instruction owns the slot idx&ringMask of a ROB-sized ring, and a
// dispatched, unissued instruction is in exactly one of three places:
//
//   - on its unissued producers' wakeup lists, with pending counting
//     them, until the last of them issues;
//   - in the timing wheel (or, when too far out, the overflow list),
//     keyed by its ready cycle, once every producer has issued;
//   - in the ready bitset, from its ready cycle until it issues.
//
// Issue walks the ready bitset oldest first, so a cycle costs one word
// per 64 ring slots plus the instructions that become ready or issue,
// not a visit to every window entry. Every latency is at least one
// cycle, so an instruction woken by an issue is never ready in that same
// cycle, and the order in which a cycle's wakeups are applied cannot
// change which instructions issue in it.
//
// All lists are intrusive, with indices stored plus one so that a zeroed
// buffer is a set of empty lists. Memory is O(ROB) whatever the
// latencies: the ring and the wakeup edges have ringMask+1 entries, the
// wheel max(ring, minWheelBuckets) buckets, and the overflow list holds
// at most one event per window entry.
type sched struct {
	ringMask int
	ready    []uint64 // ring slot bitset: ready, not yet issued
	pending  []uint8  // per slot: producers that have not issued
	wakeHead []int32  // per producer slot: first wakeup edge + 1
	edgeNext []int32  // per edge 2*slot+operand: next edge + 1

	wheelMask int
	wheelHead []int32  // per bucket: first slot + 1
	wheelNext []int32  // per slot: next slot + 1 in its bucket
	wheelBits []uint64 // bucket bitset: non-empty buckets

	overflow    []farEvent
	overflowMin int64 // earliest overflow event; 0 when empty
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

// reset sizes the scheduler for a machine with the given ROB and window
// and empties it, reusing the previous run's buffers where they fit.
func (s *sched) reset(robSize, windowSize int) {
	ring := 64
	for ring < robSize {
		ring <<= 1
	}
	wheel := max(ring, minWheelBuckets)
	s.ringMask, s.wheelMask = ring-1, wheel-1
	s.ready = grown(s.ready, ring/64)
	s.pending = grown(s.pending, ring)
	s.wakeHead = grown(s.wakeHead, ring)
	s.edgeNext = grown(s.edgeNext, 2*ring)
	s.wheelHead = grown(s.wheelHead, wheel)
	s.wheelNext = grown(s.wheelNext, ring)
	s.wheelBits = grown(s.wheelBits, wheel/64)
	if cap(s.overflow) < windowSize {
		s.overflow = make([]farEvent, 0, windowSize)
	}
	s.overflow, s.overflowMin = s.overflow[:0], 0
}

// waitOn registers operand (0 or 1) of the instruction in slot on the
// wakeup list of the unissued producer prod.
func (s *sched) waitOn(slot int, operand int, prod int32) {
	ps := int(prod) & s.ringMask
	edge := 2*slot + operand
	s.edgeNext[edge] = s.wakeHead[ps]
	s.wakeHead[ps] = int32(edge + 1)
	s.pending[slot]++
}

// schedule makes the instruction in slot ready at cycle at: at once when
// at has already passed, else through the wheel or the overflow list.
func (s *sched) schedule(slot int, at, now int64) {
	switch {
	case at <= now:
		s.ready[slot>>6] |= 1 << (slot & 63)
	case at-now <= int64(s.wheelMask):
		s.push(slot, at)
	default:
		s.overflow = append(s.overflow, farEvent{at: at, slot: int32(slot)})
		if s.overflowMin == 0 || at < s.overflowMin {
			s.overflowMin = at
		}
	}
}

// push files slot in the wheel bucket of cycle at, which must lie within
// the wheel's horizon of the current cycle.
func (s *sched) push(slot int, at int64) {
	b := int(at) & s.wheelMask
	s.wheelNext[slot] = s.wheelHead[b]
	s.wheelHead[b] = int32(slot + 1)
	s.wheelBits[b>>6] |= 1 << (b & 63)
}

// advance moves everything that becomes ready at cycle now into the
// ready bitset, first pulling overflow events that have come within the
// wheel's horizon.
func (s *sched) advance(now int64) {
	if s.overflowMin != 0 && s.overflowMin-now <= int64(s.wheelMask) {
		kept := s.overflow[:0]
		s.overflowMin = 0
		for _, ev := range s.overflow {
			if ev.at-now <= int64(s.wheelMask) {
				s.push(int(ev.slot), ev.at)
				continue
			}
			kept = append(kept, ev)
			if s.overflowMin == 0 || ev.at < s.overflowMin {
				s.overflowMin = ev.at
			}
		}
		s.overflow = kept
	}
	b := int(now) & s.wheelMask
	if s.wheelBits[b>>6]&(1<<(b&63)) == 0 {
		return
	}
	for e := s.wheelHead[b]; e != 0; {
		slot := int(e - 1)
		e = s.wheelNext[slot]
		s.ready[slot>>6] |= 1 << (slot & 63)
	}
	s.wheelHead[b] = 0
	s.wheelBits[b>>6] &^= 1 << (b & 63)
}

// nextEvent returns the earliest cycle after now at which an instruction
// becomes ready, or 0 when none is scheduled. It is called only after
// advance(now), so every wheel event lies in (now, now+wheel).
func (s *sched) nextEvent(now int64) int64 {
	next := s.overflowMin
	start := int(now+1) & s.wheelMask
	words := len(s.wheelBits)
	w0 := start >> 6
	for k := 0; k <= words; k++ {
		w := s.wheelBits[(w0+k)&(words-1)]
		switch k {
		case 0:
			w &= ^uint64(0) << (start & 63)
		case words:
			w &= 1<<(start&63) - 1
		}
		if w != 0 {
			b := ((w0+k)&(words-1))<<6 | bits.TrailingZeros64(w)
			at := now + 1 + int64((b-start)&s.wheelMask)
			if next == 0 || at < next {
				next = at
			}
			break
		}
	}
	return next
}

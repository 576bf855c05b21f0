package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval: a client request, or one call into a
// layer's public function during the in-process replay. Spans of one
// request share Req; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Workload string `json:"workload"`
	Req      int64  `json:"req"`
	Name     string `json:"name"`
	// Start and End are nanoseconds since the recorder's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the benchmark ends; it is safe for
// concurrent use.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// at converts a wall time to the recorder's clock.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add stores a finished span and returns its ID.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// open starts a span now; close ends it.
func (r *recorder) open(workload, name string, parent int, req int64) int {
	now := r.at(time.Now())
	return r.add(span{Workload: workload, Name: name, Parent: parent, Req: req, Start: now, End: now})
}

func (r *recorder) close(id int) {
	now := r.at(time.Now())
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval its direct children cover. Overlapping children (parallel
// work) count once, and a child's part outside its parent does not count.
func selfTimes(spans []span) map[int]time.Duration {
	byID := make(map[int]span, len(spans))
	children := map[int][]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return time.Duration(total)
}

// spanStats is the self-time distribution of one span name.
type spanStats struct {
	name     string
	count    int
	p50, p90 time.Duration
}

// selfStats summarizes the self times of spans by name, sorted by name.
// The spans must include the parents of every span they contain.
func selfStats(spans []span) []spanStats {
	self := selfTimes(spans)
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[s.ID]))
	}
	var out []spanStats
	for name, v := range byName {
		sort.Float64s(v)
		out = append(out, spanStats{name: name, count: len(v),
			p50: time.Duration(percentile(v, 0.5)), p90: time.Duration(percentile(v, 0.9))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

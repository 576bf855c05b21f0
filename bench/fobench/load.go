package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// loadClients is the number of closed-loop clients, each a goroutine with
// its own keep-alive connection. Two matches the 2-CPU machines the
// benchmark is sized for.
const loadClients = 2

// newClients returns one HTTP client per load goroutine, each limited to
// a single connection so the load process never holds more than
// loadClients connections to the system.
func newClients() []*http.Client {
	out := make([]*http.Client, loadClients)
	for i := range out {
		out[i] = &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   150 * time.Second,
		}
	}
	return out
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// reply is the outcome of one request.
type reply struct {
	status int
	body   []byte
	// cacheHit is the server's X-Cache: hit header.
	cacheHit   bool
	err        error
	start, end time.Time
}

func send(ctx context.Context, hc *http.Client, base string, r request) reply {
	rep := reply{start: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		rep.err = err
		rep.end = time.Now()
		return rep
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err == nil {
		rep.status = resp.StatusCode
		rep.cacheHit = resp.Header.Get("X-Cache") == "hit"
		rep.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rep.err = err
	rep.end = time.Now()
	return rep
}

// closedLoop runs the load clients: each takes the next request index
// from cursor, sends that request, and takes another only once the reply
// is in, until more(i) reports index i is past the phase. handle runs on
// the sending goroutine, with the client's number.
func closedLoop(ctx context.Context, clients []*http.Client, base string, cursor *atomic.Int64,
	at func(int) request, more func(int) bool, handle func(c, i int, r request, rep reply)) {
	var wg sync.WaitGroup
	for c, hc := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(cursor.Add(1) - 1)
				if !more(i) {
					return
				}
				r := at(i)
				handle(c, i, r, send(ctx, hc, base, r))
			}
		}()
	}
	wg.Wait()
}

// fetchAll sends every request of list once through the load clients and
// returns the replies in list order.
func fetchAll(ctx context.Context, clients []*http.Client, base string, list []request) []reply {
	out := make([]reply, len(list))
	var cursor atomic.Int64
	closedLoop(ctx, clients, base, &cursor, func(i int) request { return list[i] },
		func(i int) bool { return i < len(list) },
		func(_, i int, _ request, rep reply) { out[i] = rep })
	return out
}

// failure describes a reply that is not a verified success, or "" for one
// that is; check verifies a 200 body.
func failure(r request, rep reply, check func(request, []byte) error) string {
	switch {
	case rep.err != nil:
		return fmt.Sprintf("%s %s: %v", r.Path, r.Body, rep.err)
	case rep.status != http.StatusOK:
		return fmt.Sprintf("%s %s: status %d: %s", r.Path, r.Body, rep.status, bytes.TrimSpace(rep.body))
	case check != nil:
		if err := check(r, rep.body); err != nil {
			return fmt.Sprintf("%s %s: %v", r.Path, r.Body, err)
		}
	}
	return ""
}

// phaseResult is what one closed-loop phase measured.
type phaseResult struct {
	attempted, ok int
	failures      []string
	// lat and latNorm hold the latency of every verified success in ms,
	// sorted: as measured, and scaled by its slice's host speed.
	lat, latNorm []float64
	slices       []slice
	// captured holds the first successful replies of the phase in index
	// order, as replay samples.
	captured []capture
}

// slice is one stretch of a phase between two host-speed probes.
type slice struct {
	ok  int
	dur time.Duration
	// speed is the host's slowness over the slice (see kernel.slowness);
	// 1 when the phase is not probed.
	speed float64
	// procCPU is the CPU time each of the system's processes spent in the
	// slice, in system.procs() order; selfCPU the load process's.
	procCPU []time.Duration
	selfCPU time.Duration
}

type capture struct {
	req  request
	body []byte
}

// throughput is verified successes per second, as measured.
func (p phaseResult) throughput() float64 {
	var d time.Duration
	for _, s := range p.slices {
		d += s.dur
	}
	return ratio(float64(p.ok), d.Seconds())
}

// throughputNorm is verified successes per second of nominal-host time.
func (p phaseResult) throughputNorm() float64 {
	var d float64
	for _, s := range p.slices {
		d += s.dur.Seconds() / s.speed
	}
	return ratio(float64(p.ok), d)
}

// cpu sums the slices' CPU times: each process's, the system's total,
// and the load process's. norm scales each slice to the nominal host.
func (p phaseResult) cpu(norm bool) (procs []time.Duration, sys, self time.Duration) {
	for _, s := range p.slices {
		f := 1.0
		if norm {
			f = s.speed
		}
		if procs == nil {
			procs = make([]time.Duration, len(s.procCPU))
		}
		for i, d := range s.procCPU {
			procs[i] += time.Duration(float64(d) / f)
			sys += time.Duration(float64(d) / f)
		}
		self += time.Duration(float64(s.selfCPU) / f)
	}
	return procs, sys, self
}

// phaseOpts configures runPhase.
type phaseOpts struct {
	dur   time.Duration
	check func(request, []byte) error
	// slices > 0 splits the phase, probing the host's speed with host and
	// reading CPU times through cpu around every slice.
	slices int
	host   *kernel
	cpu    func() (procs []time.Duration, self time.Duration, err error)
	// keep is the number of leading replies to capture.
	keep int
	// spans, when non-nil, records one client span per request.
	spans    *recorder
	workload string
}

// runPhase drives tr for o.dur: in each slice every request started
// before the slice's deadline counts, and the slice ends when the last of
// them returns. The load pauses while the host is probed between slices.
func runPhase(ctx context.Context, clients []*http.Client, base string, tr traffic, cursor *atomic.Int64, o phaseOpts) (phaseResult, error) {
	var mu sync.Mutex
	var res phaseResult
	kept := map[int]capture{}
	first := int(cursor.Load())
	n := max(o.slices, 1)
	speed := 1.0
	if o.slices > 0 {
		speed = o.host.slowness()
	}
	for k := 0; k < n && ctx.Err() == nil; k++ {
		sl := slice{speed: speed}
		var procs0 []time.Duration
		var self0 time.Duration
		if o.cpu != nil {
			var err error
			if procs0, self0, err = o.cpu(); err != nil {
				return res, err
			}
		}
		lats := make([][]float64, len(clients))
		lasts := make([]time.Time, len(clients))
		var attempted atomic.Int64
		start := time.Now()
		deadline := start.Add(o.dur / time.Duration(n))
		closedLoop(ctx, clients, base, cursor, tr.at,
			func(int) bool { return time.Now().Before(deadline) },
			func(c, i int, r request, rep reply) {
				attempted.Add(1)
				lasts[c] = rep.end
				if o.spans != nil {
					o.spans.add(span{Workload: o.workload, Name: "client.request", Req: int64(i),
						Start: o.spans.at(rep.start), End: o.spans.at(rep.end)})
				}
				if msg := failure(r, rep, o.check); msg != "" {
					mu.Lock()
					res.failures = append(res.failures, msg)
					mu.Unlock()
					return
				}
				lats[c] = append(lats[c], float64(rep.end.Sub(rep.start))/float64(time.Millisecond))
				if i < first+o.keep {
					mu.Lock()
					kept[i] = capture{req: r, body: rep.body}
					mu.Unlock()
				}
			})
		last := start
		for _, t := range lasts {
			if t.After(last) {
				last = t
			}
		}
		sl.dur = last.Sub(start)
		if o.cpu != nil {
			procs1, self1, err := o.cpu()
			if err != nil {
				return res, err
			}
			for i := range procs1 {
				sl.procCPU = append(sl.procCPU, procs1[i]-procs0[i])
			}
			sl.selfCPU = self1 - self0
		}
		if o.slices > 0 {
			next := o.host.slowness()
			sl.speed = (speed + next) / 2
			speed = next
		}
		res.attempted += int(attempted.Load())
		for _, l := range lats {
			sl.ok += len(l)
			for _, v := range l {
				res.lat = append(res.lat, v)
				res.latNorm = append(res.latNorm, v/sl.speed)
			}
		}
		res.ok += sl.ok
		res.slices = append(res.slices, sl)
	}
	sort.Float64s(res.lat)
	sort.Float64s(res.latNorm)
	for i := first; i < first+o.keep; i++ {
		if c, ok := kept[i]; ok {
			res.captured = append(res.captured, c)
		}
	}
	return res, ctx.Err()
}

// percentile returns the nearest-rank q-quantile of sorted xs (0 when xs
// is empty).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)) - 1e-9))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// tailCuts are the quantiles a latency tail is reported at, highest
// first.
var tailCuts = []float64{0.999, 0.99, 0.9, 0.5}

// tailCut returns the highest cut with at least ten of n samples beyond
// it, or 0 when even the median has fewer: a percentile with fewer
// samples beyond it is one or two outliers, not a tail.
func tailCut(n int) float64 {
	for _, q := range tailCuts {
		if n-int(math.Ceil(q*float64(n)-1e-9)) >= 10 {
			return q
		}
	}
	return 0
}

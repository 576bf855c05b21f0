// Package metrics provides the lock-free instrumentation primitives
// shared by every surface that reports operational counters: the
// simulator's prep cache, the experiment suite's -timing counters, and
// the fomodeld daemon's /metrics endpoint all count through the types
// defined here, so a number printed by the CLI and the same number
// scraped from the server come from one source.
//
// All types are safe for concurrent use, and every method is a no-op (or
// returns zero) on a nil receiver, so instrumented code paths need no
// guards.
package metrics

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count; zero on a nil counter.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can move both ways (e.g. requests
// currently in flight).
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Set replaces the gauge value outright, for gauges that publish the
// result of a completed action (e.g. the last optimize search's frontier
// size) rather than a running delta.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Load returns the current value; zero on a nil gauge.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates observations into fixed cumulative buckets, in
// the Prometheus style: bucket i counts observations ≤ Bounds[i], plus a
// final +Inf bucket. The observation sum is kept in nanosecond-style
// integer units scaled by 1e9 so it can be accumulated atomically.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64
	count   atomic.Int64
	sumNano atomic.Int64
}

// NewHistogram returns a histogram over the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{
		bounds:  b,
		buckets: make([]atomic.Int64, len(b)+1),
	}
}

// DefaultLatencyBounds are request-latency bucket bounds in seconds,
// spanning cache hits (a hot hit answers in about 0.1ms) to long cold
// sweeps.
func DefaultLatencyBounds() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.25, 1, 2.5, 10, 30}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNano.Add(int64(math.Round(v * 1e9)))
}

// HistogramSnapshot is a consistent-enough copy of a histogram's state
// for rendering (individual fields are read atomically; the snapshot as a
// whole may straddle concurrent observations, which Prometheus-style
// scrapers tolerate).
type HistogramSnapshot struct {
	// Bounds are the ascending bucket upper bounds.
	Bounds []float64
	// Cumulative[i] counts observations ≤ Bounds[i]; the final implicit
	// +Inf bucket equals Count.
	Cumulative []int64
	// Count is the total number of observations and Sum their total.
	Count int64
	Sum   float64
}

// Snapshot returns the current bucket counts, cumulative per bound.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds:     h.bounds,
		Cumulative: make([]int64, len(h.bounds)),
		Count:      h.count.Load(),
		Sum:        float64(h.sumNano.Load()) / 1e9,
	}
	var running int64
	for i := range h.bounds {
		running += h.buckets[i].Load()
		s.Cumulative[i] = running
	}
	return s
}

package metrics

import (
	"strings"
	"sync"
	"testing"

	"fomodel/internal/metrics/metricstest"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestNilReceivers(t *testing.T) {
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Load() != 0 {
		t.Fatal("nil counter non-zero")
	}
	var g *Gauge
	g.Add(1)
	if g.Load() != 0 {
		t.Fatal("nil gauge non-zero")
	}
	var h *Histogram
	h.Observe(1)
	if s := h.Snapshot(); s.Count != 0 || len(s.Bounds) != 0 {
		t.Fatal("nil histogram non-empty")
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Add(5)
	g.Add(-2)
	if got := g.Load(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
	g.Set(7)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge after Set = %d, want 7", got)
	}
	var nilG *Gauge
	nilG.Set(1)
	if got := nilG.Load(); got != 0 {
		t.Fatalf("nil gauge after Set = %d, want 0", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0.01, 0.1, 1)
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	want := []int64{1, 3, 4} // ≤0.01, ≤0.1, ≤1; the 5.0 lands in +Inf
	for i, w := range want {
		if s.Cumulative[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (%v)", i, s.Cumulative[i], w, s.Cumulative)
		}
	}
	if s.Sum < 5.6 || s.Sum > 5.62 {
		t.Fatalf("sum = %v, want ≈5.61", s.Sum)
	}
}

func TestHistogramBoundaryInclusive(t *testing.T) {
	h := NewHistogram(1)
	h.Observe(1) // exactly on the bound counts in that bucket
	if s := h.Snapshot(); s.Cumulative[0] != 1 {
		t.Fatalf("boundary observation not ≤ bound: %v", s.Cumulative)
	}
}

func TestExposition(t *testing.T) {
	var rc RequestCounts
	rc.Counter("/b", 200).Add(2)
	rc.Counter("/a", 404).Inc()
	rc.Counter("/a", 200).Inc()
	h := NewHistogram(0.5, 1)
	h.Observe(0.25)
	h.Observe(2)

	var b strings.Builder
	x := NewExposition(&b, "p_")
	x.Counter("c_total", "A counter.", 3)
	x.Gauge("g", "A gauge.", -1)
	x.Labeled("l", "gauge", "A labeled gauge.", "who", []string{"x", `q"y`}, func(i int) int64 { return int64(10 + i) })
	x.Requests(&rc)
	x.Histogram("h_seconds", "A histogram.", h)
	want := `# HELP p_c_total A counter.
# TYPE p_c_total counter
p_c_total 3
# HELP p_g A gauge.
# TYPE p_g gauge
p_g -1
# HELP p_l A labeled gauge.
# TYPE p_l gauge
p_l{who="x"} 10
p_l{who="q\"y"} 11
# HELP p_requests_total Requests served, by path and status code.
# TYPE p_requests_total counter
p_requests_total{path="/a",code="200"} 1
p_requests_total{path="/a",code="404"} 1
p_requests_total{path="/b",code="200"} 2
# HELP p_h_seconds A histogram.
# TYPE p_h_seconds histogram
p_h_seconds_bucket{le="0.5"} 1
p_h_seconds_bucket{le="1"} 1
p_h_seconds_bucket{le="+Inf"} 2
p_h_seconds_sum 2.250000
p_h_seconds_count 2
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
	metricstest.Check(t, b.String())
}

package metrics

import (
	"sync"
	"testing"
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

package rng

import (
	"math"
	"testing"
)

// The oracles are the closed-form samplers the tables replace, written
// as the PCG methods they once were: one Float64 draw through the
// inverse CDF, and no draw at all for a degenerate parameter.

func geometricAt(u, mean float64) int {
	q := math.Log1p(-u) / math.Log1p(-1/mean)
	n := int(math.Ceil(q))
	if n < 1 {
		n = 1
	}
	return n
}

func paretoAt(u, alpha float64, max int) int {
	x := math.Pow(1-u, -1/alpha)
	n := int(x)
	if n < 1 {
		n = 1
	}
	if n > max {
		n = max
	}
	return n
}

func oracleGeometric(p *PCG, mean float64) int {
	if mean <= 1 {
		return 1
	}
	return geometricAt(p.Float64(), mean)
}

func oraclePareto(p *PCG, alpha float64, max int) int {
	if max <= 1 {
		return 1
	}
	return paretoAt(p.Float64(), alpha, max)
}

func drawU(m uint64) float64 { return float64(m) / (1 << drawBits) }

// The built-in workload profiles' parameters (internal/workload), plus
// extremes of each.
var (
	testMeans  = []float64{1.2, 1.3, 1.4, 2.2, 2.5, 3, 4, 1, 1 + 1e-9, 1.0001, 50, 1e6}
	testAlphas = []float64{0.5, 0.7, 1.2, 0.05, 5}
	testMaxes  = []int{200, 1, 2, 1 << 40}
)

// probes returns the draws where a table is most likely to be wrong:
// both ends of the range and, around every threshold, ±1, ±band/2 and
// ±band±1.
func probes(t *table) []uint64 {
	ms := []uint64{0, maxDraw}
	offsets := []int64{0, -1, 1, -guardBand / 2, guardBand / 2,
		-guardBand - 1, -guardBand, -guardBand + 1, guardBand - 1, guardBand, guardBand + 1}
	for _, th := range t.thr {
		for _, d := range offsets {
			if m := int64(th) + d; m >= 0 && m <= maxDraw {
				ms = append(ms, uint64(m))
			}
		}
	}
	return ms
}

// checkGeometric compares the sampler with the formula at every probe
// and at n random draws.
func checkGeometric(t *testing.T, mean float64, n int) {
	t.Helper()
	s := NewGeometricSampler(mean)
	if s.trivial {
		if mean > 1 {
			t.Fatalf("mean %v: sampler is trivial", mean)
		}
		return
	}
	ms := probes(&s.tab)
	p := New(uint64(math.Float64bits(mean)))
	for i := 0; i < n; i++ {
		ms = append(ms, p.Uint64()>>(64-drawBits))
	}
	for _, m := range ms {
		if got, want := s.value(m), geometricAt(drawU(m), mean); got != want {
			t.Fatalf("geometric mean %v at m=%d: table %d, formula %d", mean, m, got, want)
		}
	}
}

func checkPareto(t *testing.T, alpha float64, max, n int) {
	t.Helper()
	s := NewParetoSampler(alpha, max)
	if s.trivial {
		if max > 1 {
			t.Fatalf("max %d: sampler is trivial", max)
		}
		return
	}
	ms := probes(&s.tab)
	p := New(uint64(math.Float64bits(alpha)) ^ uint64(max))
	for i := 0; i < n; i++ {
		ms = append(ms, p.Uint64()>>(64-drawBits))
	}
	for _, m := range ms {
		if got, want := s.value(m), paretoAt(drawU(m), alpha, max); got != want {
			t.Fatalf("pareto alpha %v max %d at m=%d: table %d, formula %d", alpha, max, m, got, want)
		}
	}
}

// TestSamplersMatchFormula is the differential test of the tables: over
// 10^6 random draws in all, plus every threshold's neighbourhood, the
// samplers return exactly what the closed-form formulas return.
func TestSamplersMatchFormula(t *testing.T) {
	const perCase = 1 << 16
	for _, mean := range testMeans {
		checkGeometric(t, mean, perCase)
	}
	for _, alpha := range testAlphas {
		for _, max := range testMaxes {
			checkPareto(t, alpha, max, perCase)
		}
	}
}

// TestSamplersTabulate guards the speed of the built-in parameters: each
// builds a table whose fast buckets answer most draws.
func TestSamplersTabulate(t *testing.T) {
	fast := func(tab *table) float64 {
		n := 0
		for _, v := range tab.bucket {
			if v&slowBucket == 0 {
				n++
			}
		}
		return float64(n) / float64(len(tab.bucket))
	}
	for _, mean := range []float64{1.2, 1.3, 1.4, 2.2, 2.5, 3, 4} {
		s := NewGeometricSampler(mean)
		if f := fast(&s.tab); f < 0.9 {
			t.Errorf("geometric mean %v: %.2f of buckets fast", mean, f)
		}
	}
	for _, alpha := range []float64{0.5, 0.7, 1.2} {
		s := NewParetoSampler(alpha, 200)
		if s.tab.capped {
			t.Errorf("pareto alpha %v max 200: table capped at %d thresholds", alpha, len(s.tab.thr))
		}
		if f := fast(&s.tab); f < 0.8 {
			t.Errorf("pareto alpha %v: %.2f of buckets fast", alpha, f)
		}
	}
}

// TestSamplersConsumeLikeFormula runs each sampler and its oracle on two
// generators with the same seed: the values and the generators' states
// must stay equal, so a sampler consumes exactly the draws the formula
// does, and none where it returns early.
func TestSamplersConsumeLikeFormula(t *testing.T) {
	for _, mean := range testMeans {
		s := NewGeometricSampler(mean)
		a, b := New(7), New(7)
		for i := 0; i < 1000; i++ {
			if got, want := s.Sample(a), oracleGeometric(b, mean); got != want {
				t.Fatalf("geometric mean %v draw %d: %d, oracle %d", mean, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("geometric mean %v: draw count differs from oracle", mean)
		}
	}
	for _, alpha := range testAlphas {
		for _, max := range testMaxes {
			s := NewParetoSampler(alpha, max)
			a, b := New(9), New(9)
			for i := 0; i < 1000; i++ {
				if got, want := s.Sample(a), oraclePareto(b, alpha, max); got != want {
					t.Fatalf("pareto alpha %v max %d draw %d: %d, oracle %d", alpha, max, i, got, want)
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("pareto alpha %v max %d: draw count differs from oracle", alpha, max)
			}
		}
	}
}

// FuzzSampler checks the tables against the formulas at arbitrary
// parameters and draws, including every threshold's neighbourhood.
func FuzzSampler(f *testing.F) {
	f.Add(3.0, 0.7, int64(200), uint64(0))
	f.Add(1.0, 5.0, int64(1), uint64(maxDraw))
	f.Add(1+1e-9, 0.05, int64(1<<40), uint64(1)<<52)
	f.Add(1e6, 1.2, int64(2), uint64(12345))
	f.Fuzz(func(t *testing.T, mean, alpha float64, max int64, m uint64) {
		m &= maxDraw
		g := NewGeometricSampler(mean)
		if !g.trivial {
			for _, x := range append(probes(&g.tab), m) {
				if got, want := g.value(x), geometricAt(drawU(x), mean); got != want {
					t.Fatalf("geometric mean %v at m=%d: table %d, formula %d", mean, x, got, want)
				}
			}
		}
		p := NewParetoSampler(alpha, int(max))
		if !p.trivial {
			for _, x := range append(probes(&p.tab), m) {
				if got, want := p.value(x), paretoAt(drawU(x), alpha, int(max)); got != want {
					t.Fatalf("pareto alpha %v max %d at m=%d: table %d, formula %d", alpha, max, x, got, want)
				}
			}
		}
	})
}

package rng

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("sequence diverged at %d: %d vs %d", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := NewStream(7, 1)
	b := NewStream(7, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different streams produced %d/100 identical outputs", same)
	}
}

func TestIntnBounds(t *testing.T) {
	p := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := p.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

// TestIntnAboveUint32 draws from bounds at and above 2^32, which a
// 32-bit bounded draw would truncate: Intn(1<<32) read 0 on every draw
// and Intn(1<<32+5) only values below 5. Every draw must lie in range,
// and the draws must reach the top of it.
func TestIntnAboveUint32(t *testing.T) {
	if math.MaxInt <= math.MaxUint32 {
		t.Skip("int is 32 bits")
	}
	p := New(11)
	for _, n := range []uint64{1 << 32, 1<<32 + 5, 1 << 40, math.MaxInt64} {
		high := 0
		for i := 0; i < 200; i++ {
			v := p.Intn(int(n))
			if v < 0 || uint64(v) >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			if uint64(v) >= n/2 {
				high++
			}
		}
		// Half the draws lie in the upper half; 60 of 200 is >6 sigma low.
		if high < 60 {
			t.Fatalf("Intn(%d): only %d of 200 draws in the upper half", n, high)
		}
	}
}

// TestHitMatchesBool draws Hit and Bool from two generators with the
// same seed at probabilities around every edge of the integer threshold:
// the outcomes and the generators' states must stay equal.
func TestHitMatchesBool(t *testing.T) {
	probs := []float64{0, -1, math.NaN(), 1, 2, math.Inf(1), math.Inf(-1),
		0.3, 0.5, 0.999, 1e-300, 5e-324, math.Nextafter(1, 0), 1.0 / 3, 0.05}
	// Probabilities within a few ulps of the draws the reference stream
	// produces, so some draws land exactly on or next to the threshold.
	ref := New(5)
	for i := 0; i < 20; i++ {
		u := ref.Float64()
		probs = append(probs, u, math.Nextafter(u, 0), math.Nextafter(u, 1))
	}
	for _, prob := range probs {
		c := NewChance(prob)
		a, b := New(5), New(5)
		for i := 0; i < 2000; i++ {
			if got, want := a.Hit(c), b.Bool(prob); got != want {
				t.Fatalf("prob %v draw %d: Hit %v, Bool %v", prob, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("prob %v: Hit and Bool consumed different draws", prob)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	// The panic message must name the offending value, so a crash in a
	// deeply nested sampler is diagnosable from the message alone.
	for _, n := range []int{0, -7} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, fmt.Sprintf("%d", n)) {
					t.Fatalf("Intn(%d) panic %q does not carry the value", n, r)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func TestInt63nPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int64{0, -123} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Int63n(%d) did not panic", n)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, fmt.Sprintf("%d", n)) {
					t.Fatalf("Int63n(%d) panic %q does not carry the value", n, r)
				}
			}()
			New(1).Int63n(n)
		}()
	}
}

func TestInt63nBounds(t *testing.T) {
	p := New(5)
	for _, n := range []int64{1, 10, 1 << 40} {
		for i := 0; i < 200; i++ {
			v := p.Int63n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	p := New(11)
	const n, draws = 8, 80000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[p.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	p := New(13)
	var sum float64
	const draws = 50000
	for i := 0; i < draws; i++ {
		v := p.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	p := New(17)
	const draws = 50000
	hits := 0
	for i := 0; i < draws; i++ {
		if p.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / draws; math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate %v", frac)
	}
}

func TestGeometricMean(t *testing.T) {
	p := New(19)
	for _, mean := range []float64{1, 2, 5, 20} {
		s := NewGeometricSampler(mean)
		var sum float64
		const draws = 40000
		for i := 0; i < draws; i++ {
			v := s.Sample(p)
			if v < 1 {
				t.Fatalf("Geometric(%v) = %d < 1", mean, v)
			}
			sum += float64(v)
		}
		got := sum / draws
		if math.Abs(got-mean) > 0.05*mean+0.01 {
			t.Errorf("Geometric(%v) mean %v", mean, got)
		}
	}
}

func TestParetoBounds(t *testing.T) {
	p := New(23)
	const max = 50
	s := NewParetoSampler(0.7, max)
	seenLarge := false
	for i := 0; i < 20000; i++ {
		v := s.Sample(p)
		if v < 1 || v > max {
			t.Fatalf("Pareto out of range: %d", v)
		}
		if v > max/2 {
			seenLarge = true
		}
	}
	if !seenLarge {
		t.Fatal("Pareto(0.7) never produced a tail value")
	}
}

func TestParetoHeavierTailForSmallerAlpha(t *testing.T) {
	heavy, light := New(29), New(29)
	heavyS, lightS := NewParetoSampler(0.5, 1000), NewParetoSampler(2.0, 1000)
	var sumHeavy, sumLight float64
	for i := 0; i < 20000; i++ {
		sumHeavy += float64(heavyS.Sample(heavy))
		sumLight += float64(lightS.Sample(light))
	}
	if sumHeavy <= sumLight {
		t.Fatalf("alpha=0.5 mean %v not heavier than alpha=2.0 mean %v", sumHeavy/20000, sumLight/20000)
	}
}

func TestParetoDegenerateMax(t *testing.T) {
	p := New(31)
	s := NewParetoSampler(1, 1)
	if v := s.Sample(p); v != 1 {
		t.Fatalf("Pareto(max=1) = %d, want 1", v)
	}
}

func TestNormalMoments(t *testing.T) {
	p := New(37)
	const draws = 60000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := p.Normal(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	std := math.Sqrt(sumSq/draws - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("Normal mean %v, want ~10", mean)
	}
	if math.Abs(std-3) > 0.1 {
		t.Errorf("Normal stddev %v, want ~3", std)
	}
}

func TestWeighted(t *testing.T) {
	p := New(41)
	weights := []float64{1, 0, 3}
	var counts [3]int
	const draws = 40000
	for i := 0; i < draws; i++ {
		counts[p.Weighted(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight bucket selected %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.3 {
		t.Fatalf("weight ratio %v, want ~3", ratio)
	}
}

func TestWeightedDegenerate(t *testing.T) {
	p := New(43)
	if got := p.Weighted([]float64{0, 0}); got != 0 {
		t.Fatalf("all-zero weights selected %d, want 0", got)
	}
	if got := p.Weighted([]float64{-1, 5}); got != 1 {
		t.Fatalf("negative weight selected %d, want 1", got)
	}
}

func TestIntnPropertyInRange(t *testing.T) {
	p := New(47)
	f := func(seed uint32, n uint16) bool {
		bound := int(n%1000) + 1
		v := p.Intn(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricPropertyAtLeastOne(t *testing.T) {
	p := New(53)
	f := func(m uint8) bool {
		s := NewGeometricSampler(float64(m%50) + 1)
		return s.Sample(p) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

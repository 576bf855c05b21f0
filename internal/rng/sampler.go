package rng

import "math"

// Table-driven inverse-CDF samplers.
//
// A sampler maps one 53-bit uniform draw m (the bits behind Float64, so
// u = m/2^53) to an integer through a closed-form inverse CDF. The
// formula costs a Log1p or a Pow per draw, yet its result changes only
// at a few thresholds of m. A sampler therefore tabulates those
// thresholds once, at construction, and answers most draws with one
// table load. It is exact: it returns the formula's value for every m.
//
//   - The formula is monotone in m up to rounding jitter. Log1p errs by
//     under one ulp, a few grid steps of m; Pow by tens of ulps, at most
//     a few hundred grid steps at any exponent the tables accept.
//   - Each tabulated threshold comes from a closed-form inverse and is
//     checked against the formula guardBand grid steps either side. A
//     threshold that fails the check, or lies closer than two bands to
//     its neighbour or the end of the range, ends the table.
//   - A draw within guardBand of a threshold, past the last threshold of
//     a table that ends before the largest value, or at or past a table's
//     top is answered by the formula itself. Elsewhere the jitter is far
//     below the band, so the table and the formula agree.
//   - The top is where the formula's float stops fitting an int. Go
//     leaves that conversion to the platform (amd64 yields the minimum
//     int, which the Pareto clamp turns into 1), so those draws keep
//     whatever the formula gives.

const (
	drawBits  = 53
	maxDraw   = 1<<drawBits - 1
	guardBand = 1 << 20 // grid steps, about 1.2e-10 in u

	bucketBits  = 12
	bucketShift = drawBits - bucketBits
	// slowBucket flags a bucket that holds or borders a threshold; its
	// low bits are the number of thresholds at or below the bucket start.
	slowBucket = 1 << 15
	// maxThresholds caps a table, so a huge bound on the value (a Pareto
	// max of 1<<40) costs no more than a few kilobytes.
	maxThresholds = 1024
)

// table holds the thresholds of a value function that starts at 1 and
// steps up by one at each threshold: value(m) = 1 + #{i : thr[i] <= m}
// away from the guard bands.
type table struct {
	thr    []uint64 // thr[i] is the first draw whose value is >= i+2
	bucket []uint16 // by the top bucketBits of m: the value, or slowBucket|count
	capped bool     // values above len(thr)+1 exist but are not tabulated
	top    uint64   // draws >= top are not tabulated
}

// newTable tabulates value, which must be monotone non-decreasing in m
// up to rounding jitter and equal 1 at m = 0. threshold(k) estimates the
// u at which the value first reaches k; limit is the largest value, or
// 0 when there is none. Draws at or past top are left to the formula.
func newTable(value func(m uint64) int, threshold func(k int) float64, limit int, top uint64) table {
	t := table{top: top}
	for k := 2; limit == 0 || k <= limit; k++ {
		if len(t.thr) == maxThresholds {
			t.capped = true
			break
		}
		x := math.Ceil(threshold(k) * (1 << drawBits))
		lo := uint64(guardBand)
		if n := len(t.thr); n > 0 {
			lo = t.thr[n-1] + 2*guardBand
		}
		if !(x >= float64(lo) && x+guardBand < float64(top)) {
			t.capped = true
			break
		}
		m := uint64(x)
		if value(m-guardBand) != k-1 || value(m+guardBand) != k {
			t.capped = true
			break
		}
		t.thr = append(t.thr, m)
	}
	t.bucket = make([]uint16, 1<<bucketBits)
	c := 0
	for b := range t.bucket {
		lo := uint64(b) << bucketShift
		hi := lo + 1<<bucketShift - 1
		for c < len(t.thr) && t.thr[c] <= lo {
			c++
		}
		below := c == 0 || t.thr[c-1]+guardBand <= lo
		above := c < len(t.thr) && t.thr[c] > hi+guardBand || c == len(t.thr) && !t.capped
		if below && above && hi < top {
			t.bucket[b] = uint16(c + 1)
		} else {
			t.bucket[b] = slowBucket | uint16(c)
		}
	}
	return t
}

// lookup returns the tabulated value of draw m; ok is false when m lies
// in a guard band, past a capped table or at or past the top, and the
// caller must evaluate the formula.
func (t *table) lookup(m uint64) (n int, ok bool) {
	v := t.bucket[m>>bucketShift]
	if v&slowBucket == 0 {
		return int(v), true
	}
	if m >= t.top {
		return 0, false
	}
	c := int(v &^ slowBucket)
	for c < len(t.thr) && t.thr[c] <= m {
		c++
	}
	switch {
	case c == len(t.thr) && t.capped,
		c > 0 && m-t.thr[c-1] < guardBand,
		c < len(t.thr) && t.thr[c]-m <= guardBand:
		return 0, false
	}
	return c + 1, true
}

// GeometricSampler samples a geometric distribution with a fixed mean:
// the number of Bernoulli(1/mean) trials up to and including the first
// success, always >= 1. Build it once with NewGeometricSampler and call
// Sample per draw.
type GeometricSampler struct {
	trivial bool    // mean <= 1: every sample is 1 and takes no draw
	logq    float64 // Log1p(-1/mean)
	tab     table
}

// NewGeometricSampler returns a sampler for the given mean.
func NewGeometricSampler(mean float64) GeometricSampler {
	if mean <= 1 {
		return GeometricSampler{trivial: true}
	}
	s := GeometricSampler{logq: math.Log1p(-1 / mean)}
	// value >= k  ⇔  ln(1-u)/ln(1-1/mean) > k-1  ⇔  u > 1-(1-1/mean)^(k-1)
	s.tab = newTable(s.exact, func(k int) float64 {
		return -math.Expm1(float64(k-1) * s.logq)
	}, 0, maxDraw+1)
	return s
}

// Sample draws one value from p. It consumes exactly one Float64's
// worth of p's output, or none when the mean is <= 1.
func (s *GeometricSampler) Sample(p *PCG) int {
	if s.trivial {
		return 1
	}
	return s.value(p.Uint64() >> (64 - drawBits))
}

// value maps a 53-bit draw to its sample.
func (s *GeometricSampler) value(m uint64) int {
	if n, ok := s.tab.lookup(m); ok {
		return n
	}
	return s.exact(m)
}

// exact is the inverse-CDF formula ceil(ln(1-u)/ln(1-p)) with p = 1/mean.
func (s *GeometricSampler) exact(m uint64) int {
	u := float64(m) / (1 << drawBits)
	n := int(math.Ceil(math.Log1p(-u) / s.logq))
	if n < 1 {
		n = 1
	}
	return n
}

// ParetoSampler samples a bounded discrete Pareto (power-law) value in
// [1, max] with tail exponent alpha > 0; smaller alpha gives a heavier
// tail. Build it once with NewParetoSampler and call Sample per draw.
type ParetoSampler struct {
	trivial bool    // max <= 1: every sample is 1 and takes no draw
	exp     float64 // -1/alpha
	max     int
	tab     table
}

// NewParetoSampler returns a sampler for the given exponent and bound.
func NewParetoSampler(alpha float64, max int) ParetoSampler {
	if max <= 1 {
		return ParetoSampler{trivial: true}
	}
	s := ParetoSampler{exp: -1 / alpha, max: max}
	// value >= k  ⇔  (1-u)^exp >= k  ⇔  u >= 1-k^(1/exp), for exp < 0
	inverse := func(x float64) float64 { return -math.Expm1(math.Log(x) / s.exp) }
	// The top sits a guard band below where (1-u)^exp reaches 2^62, a
	// factor of two short of overflowing the int conversion.
	top := uint64(0)
	if m := inverse(1<<62) * (1 << drawBits); m > guardBand {
		top = min(uint64(m)-guardBand, maxDraw+1)
	}
	s.tab = newTable(s.exact, func(k int) float64 { return inverse(float64(k)) }, max, top)
	return s
}

// Sample draws one value from p. It consumes exactly one Float64's
// worth of p's output, or none when max <= 1.
func (s *ParetoSampler) Sample(p *PCG) int {
	if s.trivial {
		return 1
	}
	return s.value(p.Uint64() >> (64 - drawBits))
}

// value maps a 53-bit draw to its sample.
func (s *ParetoSampler) value(m uint64) int {
	if n, ok := s.tab.lookup(m); ok {
		return n
	}
	return s.exact(m)
}

// exact is the inverse transform of the continuous Pareto, truncated to
// an integer and clamped to [1, max].
func (s *ParetoSampler) exact(m uint64) int {
	u := float64(m) / (1 << drawBits)
	n := int(math.Pow(1-u, s.exp))
	if n < 1 {
		n = 1
	}
	if n > s.max {
		n = s.max
	}
	return n
}

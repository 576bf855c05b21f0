package branchless

import (
	"math"
	"testing"
)

// TestMax checks Max against the max builtin on both instantiations,
// at values far apart, adjacent and equal, and near the ends of the
// range where a - b still fits.
func TestMax(t *testing.T) {
	pairs := [][2]int64{
		{0, 0}, {1, 0}, {0, 1}, {-1, 1}, {5, 5}, {1 << 40, 3}, {-7, -(1 << 40)},
		{math.MaxInt64, 0}, {0, math.MaxInt64}, {math.MinInt64 + 1, 0}, {-1, math.MaxInt64},
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		if got, want := Max(a, b), max(a, b); got != want {
			t.Errorf("Max(%d, %d) = %d, want %d", a, b, got, want)
		}
		if got, want := Max(int(a), int(b)), max(int(a), int(b)); got != want {
			t.Errorf("Max[int](%d, %d) = %d, want %d", a, b, got, want)
		}
	}
}

package fit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5*x - 1.25
	}
	line, err := Linear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(line.Slope-2.5) > 1e-12 || math.Abs(line.Intercept+1.25) > 1e-12 {
		t.Fatalf("fit %+v", line)
	}
	if math.Abs(line.R2-1) > 1e-12 {
		t.Fatalf("R2 %v, want 1", line.R2)
	}
}

func TestLinearNoisy(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{1.1, 1.9, 3.2, 3.8, 5.1, 5.9}
	line, err := Linear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(line.Slope-1) > 0.1 {
		t.Fatalf("slope %v, want ~1", line.Slope)
	}
	if line.R2 < 0.98 {
		t.Fatalf("R2 %v too low", line.R2)
	}
}

func TestLinearErrors(t *testing.T) {
	if _, err := Linear([]float64{1}, []float64{2}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := Linear([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Linear([]float64{3, 3, 3}, []float64{1, 2, 3}); err == nil {
		t.Fatal("degenerate x accepted")
	}
}

func TestLinearConstantY(t *testing.T) {
	line, err := Linear([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if line.Slope != 0 || line.Intercept != 5 || line.R2 != 1 {
		t.Fatalf("constant fit %+v", line)
	}
}

func TestLinearPropertyRecoversLine(t *testing.T) {
	f := func(slope, intercept int8) bool {
		s, c := float64(slope), float64(intercept)
		xs := []float64{-2, -1, 0, 1, 2, 5}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = s*x + c
		}
		line, err := Linear(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(line.Slope-s) < 1e-9 && math.Abs(line.Intercept-c) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

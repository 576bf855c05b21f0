// Package fit provides ordinary least-squares linear regression, which
// the log-log power-law fit of the IW characteristic uses.
package fit

import "fmt"

// Line is a fitted line y = Slope*x + Intercept with its coefficient of
// determination.
type Line struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// Linear fits y = slope*x + intercept by ordinary least squares.
// It requires at least two distinct x values.
func Linear(xs, ys []float64) (Line, error) {
	if len(xs) != len(ys) {
		return Line{}, fmt.Errorf("fit: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Line{}, fmt.Errorf("fit: need at least 2 points, have %d", len(xs))
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Line{}, fmt.Errorf("fit: all x values identical (%v)", mx)
	}
	slope := sxy / sxx
	line := Line{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		line.R2 = 1
	} else {
		line.R2 = sxy * sxy / (sxx * syy)
	}
	return line, nil
}

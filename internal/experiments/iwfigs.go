package experiments

import (
	"fmt"
	"math"

	"fomodel/internal/iw"
)

// Figure4Result holds the per-benchmark IW curves of the paper's Fig. 4:
// idealized unit-latency, unlimited-width issue rate versus window size on
// a log2-log2 scale.
type Figure4Result struct {
	Windows []int
	Curves  map[string][]iw.Point
	Order   []string
}

// Figure4 measures the implementation-independent IW curves.
func Figure4(s *Suite) (*Figure4Result, error) {
	ws, err := MapWorkloads(s, s.Names, 1, func(w *Workload, _ int) (*Workload, error) { return w, nil }, nil)
	if err != nil {
		return nil, err
	}
	res := &Figure4Result{Windows: iw.DefaultWindows(), Curves: make(map[string][]iw.Point)}
	for _, w := range ws {
		res.Curves[w.Name] = w.Points
		res.Order = append(res.Order, w.Name)
	}
	return res, nil
}

// tab builds the result table.
func (r *Figure4Result) tab() *table {
	t := &table{
		title:  "Figure 4: power-law IW curves — log2(issue rate) by log2(window)",
		header: []string{"bench"},
	}
	for _, w := range r.Windows {
		t.header = append(t.header, fmt.Sprintf("W=%d", w))
	}
	for _, name := range r.Order {
		cells := []string{name}
		for _, p := range r.Curves[name] {
			cells = append(cells, f2(math.Log2(p.I)))
		}
		t.addRow(cells...)
	}
	return t
}

// Table1Row is one benchmark of the paper's Table 1: the power-law
// parameters and average latency.
type Table1Row struct {
	Name       string
	Alpha      float64
	Beta       float64
	R2         float64
	AvgLatency float64
}

// Table1Result is the full Table 1 (the paper prints gzip, vortex and vpr;
// we compute all benchmarks and mark the paper's three).
type Table1Result struct {
	Rows []Table1Row
}

// PaperTable1Benchmarks are the three illustrative benchmarks the paper
// tabulates, spanning the curve extremes and middle.
var PaperTable1Benchmarks = []string{"gzip", "vortex", "vpr"}

// Table1 fits the power laws and reports the model parameters.
func Table1(s *Suite) (*Table1Result, error) {
	rows, err := MapWorkloads(s, s.Names, 1, func(w *Workload, _ int) (Table1Row, error) {
		return Table1Row{
			Name:       w.Name,
			Alpha:      w.Law.Alpha,
			Beta:       w.Law.Beta,
			R2:         w.Law.R2,
			AvgLatency: w.Summary.AvgLatency,
		}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return &Table1Result{Rows: rows}, nil
}

// Row returns the named row, if present.
func (r *Table1Result) Row(name string) (Table1Row, bool) {
	for _, row := range r.Rows {
		if row.Name == name {
			return row, true
		}
	}
	return Table1Row{}, false
}

// tab builds the result table.
func (r *Table1Result) tab() *table {
	t := &table{
		title:  "Table 1: power-law parameters (unit latency) and average latency",
		header: []string{"bench", "alpha", "beta", "R2", "avg lat"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Name, f2(row.Alpha), f2(row.Beta), f3(row.R2), f2(row.AvgLatency))
	}
	t.addNote("paper's illustrative rows: gzip (1.3, 0.5, 1.5), vortex (1.2, 0.7, 1.6), vpr (1.7, 0.3, 2.2)")
	return t
}

// Figure5Row compares a measured IW point against the fitted line for one
// of the paper's three illustrative benchmarks.
type Figure5Row struct {
	Name      string
	W         int
	MeasuredI float64
	FittedI   float64
}

// Figure5Result is the measured-vs-fit comparison of the paper's Fig. 5.
type Figure5Result struct {
	Rows []Figure5Row
}

// Figure5 evaluates the fit quality for gzip, vortex and vpr.
func Figure5(s *Suite) (*Figure5Result, error) {
	res := &Figure5Result{}
	for _, name := range PaperTable1Benchmarks {
		w, err := s.Workload(name)
		if err != nil {
			return nil, err
		}
		for _, p := range w.Points {
			res.Rows = append(res.Rows, Figure5Row{
				Name:      name,
				W:         p.W,
				MeasuredI: p.I,
				FittedI:   w.Law.Eval(float64(p.W)),
			})
		}
	}
	return res, nil
}

// tab builds the result table.
func (r *Figure5Result) tab() *table {
	t := &table{
		title:  "Figure 5: linear (log-log) fit vs measured IW curve",
		header: []string{"bench", "W", "measured I", "fitted I", "err"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Name, fmt.Sprintf("%d", row.W), f3(row.MeasuredI), f3(row.FittedI),
			pct(relErr(row.FittedI, row.MeasuredI)))
	}
	return t
}

// Figure6Result holds the width-limited IW curves of the paper's Fig. 6
// for one benchmark: the ideal curve follows the power law until it
// saturates at the implemented issue width.
type Figure6Result struct {
	Bench   string
	Windows []int
	// CurvesByWidth maps issue width (0 = unlimited) to measured points.
	CurvesByWidth map[int][]iw.Point
	Widths        []int
}

// Figure6 measures the limited-issue-width IW characteristics (the paper
// plots gcc; widths 2, 4, 8, and unlimited).
func Figure6(s *Suite) (*Figure6Result, error) {
	const bench = "gcc"
	w, err := s.Workload(bench)
	if err != nil {
		return nil, err
	}
	windows := []int{2, 4, 8, 16, 32, 64, 128}
	res := &Figure6Result{
		Bench:         bench,
		Windows:       windows,
		CurvesByWidth: make(map[int][]iw.Point),
		Widths:        []int{0, 8, 4, 2},
	}
	for _, width := range res.Widths {
		pts, err := iw.Characteristic(w.Trace, windows, iw.Options{IssueWidth: width})
		if err != nil {
			return nil, err
		}
		res.CurvesByWidth[width] = pts
	}
	return res, nil
}

// tab builds the result table.
func (r *Figure6Result) tab() *table {
	t := &table{
		title:  fmt.Sprintf("Figure 6: IW characteristic with limited issue width (%s)", r.Bench),
		header: []string{"width"},
	}
	for _, w := range r.Windows {
		t.header = append(t.header, fmt.Sprintf("W=%d", w))
	}
	for _, width := range r.Widths {
		label := "unlimited"
		if width > 0 {
			label = fmt.Sprintf("%d", width)
		}
		cells := []string{label}
		for _, p := range r.CurvesByWidth[width] {
			cells = append(cells, f2(math.Log2(p.I)))
		}
		t.addRow(cells...)
	}
	t.addNote("limited curves follow the ideal curve, then saturate at the issue width")
	return t
}

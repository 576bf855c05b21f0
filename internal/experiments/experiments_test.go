package experiments

import (
	"context"
	"strings"
	"testing"
)

// smallSuite keeps the simulator-heavy tests fast: three contrasting
// benchmarks at a short trace length.
func smallSuite() *Suite {
	s := NewSuite(60000, 1)
	s.Names = []string{"gzip", "mcf", "vortex"}
	return s
}

func TestSuiteCaching(t *testing.T) {
	s := smallSuite()
	a, err := s.Workload("gzip")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Workload("gzip")
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace != b.Trace || a.Summary != b.Summary {
		t.Fatal("workload trace or analysis not cached")
	}
	if a.Trace.Len() < 60000 {
		t.Fatalf("trace too short: %d", a.Trace.Len())
	}
	if err := a.Inputs.Validate(); err != nil {
		t.Fatalf("derived inputs invalid: %v", err)
	}
}

func TestSuiteUnknownWorkload(t *testing.T) {
	s := smallSuite()
	if _, err := s.Workload("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestFigure2Independence(t *testing.T) {
	res, err := Figure2(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// The paper's central claim: summing isolated penalties lands close
	// to the combined run. Short traces are noisy; 12% is conservative.
	if res.MeanIndependentErr > 0.12 {
		t.Fatalf("independent approximation off by %v", res.MeanIndependentErr)
	}
	for _, r := range res.Rows {
		if r.CombinedIPC <= 0 || r.IndependentIPC <= 0 || r.CompensatedIPC <= 0 {
			t.Fatalf("non-positive IPC in %+v", r)
		}
	}
	if !strings.Contains(res.tab().Render(), "Figure 2") {
		t.Fatal("render missing title")
	}
}

func TestFigure4And5(t *testing.T) {
	s := smallSuite()
	f4, err := Figure4(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f4.Curves) != 3 || len(f4.Windows) == 0 {
		t.Fatal("figure 4 incomplete")
	}
	for name, pts := range f4.Curves {
		for i := 1; i < len(pts); i++ {
			if pts[i].I < pts[i-1].I-1e-9 {
				t.Fatalf("%s: IW curve not monotone at W=%d", name, pts[i].W)
			}
		}
	}
	f5, err := Figure5(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f5.Rows {
		if e := abs(relErr(row.FittedI, row.MeasuredI)); e > 0.25 {
			t.Fatalf("%s W=%d: fit error %v too large", row.Name, row.W, e)
		}
	}
	if !strings.Contains(f4.tab().Render(), "W=64") || !strings.Contains(f5.tab().Render(), "vpr") {
		t.Fatal("render incomplete")
	}
}

func TestTable1(t *testing.T) {
	res, err := Table1(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	vortex, ok := res.Row("vortex")
	if !ok {
		t.Fatal("vortex missing")
	}
	gzip, _ := res.Row("gzip")
	// The paper's ordering: vortex has the highest beta of the three.
	if vortex.Beta <= gzip.Beta {
		t.Fatalf("vortex beta %v not above gzip %v", vortex.Beta, gzip.Beta)
	}
	if _, ok := res.Row("absent"); ok {
		t.Fatal("phantom row found")
	}
	if !strings.Contains(res.tab().Render(), "alpha") {
		t.Fatal("render incomplete")
	}
}

func TestFigure6Saturation(t *testing.T) {
	res, err := Figure6(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	unlimited := res.CurvesByWidth[0]
	for _, width := range []int{2, 4, 8} {
		pts := res.CurvesByWidth[width]
		last := pts[len(pts)-1]
		if last.I > float64(width)+0.01 {
			t.Fatalf("width-%d curve exceeds its cap: %v", width, last.I)
		}
		// At the smallest window the limited curve follows the ideal one.
		if abs(pts[0].I-unlimited[0].I) > 0.15*unlimited[0].I {
			t.Fatalf("width-%d curve diverges from ideal at W=2", width)
		}
	}
	if !strings.Contains(res.tab().Render(), "unlimited") {
		t.Fatal("render incomplete")
	}
}

func TestFigure8PaperNumbers(t *testing.T) {
	res, err := Figure8(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	if abs(res.Drain-2.1) > 0.3 || abs(res.RampUp-2.7) > 0.3 || abs(res.Total-9.7) > 0.5 {
		t.Fatalf("Fig. 8 numbers drain=%.2f ramp=%.2f total=%.2f, paper 2.1/2.7/9.7",
			res.Drain, res.RampUp, res.Total)
	}
	if len(res.Points) == 0 {
		t.Fatal("no transient points")
	}
	if !strings.Contains(res.Render(), "drain") {
		t.Fatal("render incomplete")
	}
}

func TestFigure9PenaltyBounds(t *testing.T) {
	res, err := Figure9(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// Paper: the penalty exceeds the front-end depth, and a 9-stage
		// front end costs more than a 5-stage one.
		if row.SimPenalty5 <= 5 {
			t.Errorf("%s: dP=5 penalty %v not above the pipeline depth", row.Name, row.SimPenalty5)
		}
		if row.SimPenalty9 <= row.SimPenalty5 {
			t.Errorf("%s: dP=9 penalty %v not above dP=5 %v", row.Name, row.SimPenalty9, row.SimPenalty5)
		}
		if row.SimPenalty5 > 25 {
			t.Errorf("%s: dP=5 penalty %v implausibly large", row.Name, row.SimPenalty5)
		}
	}
	if !strings.Contains(res.tab().Render(), "model dP=9") {
		t.Fatal("render incomplete")
	}
}

func TestFigure10And12Shapes(t *testing.T) {
	s := smallSuite()
	f10, err := Figure10(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f10.Points) == 0 {
		t.Fatal("figure 10 empty")
	}
	f12, err := Figure12(s)
	if err != nil {
		t.Fatal(err)
	}
	// The d-miss transient must idle for most of ΔD and recover.
	zeros := 0
	for _, p := range f12.Points {
		if p.Issue == 0 {
			zeros++
		}
	}
	if zeros < f12.MissDelay/2 {
		t.Fatalf("d-miss transient idles only %d cycles of %d", zeros, f12.MissDelay)
	}
	if !strings.Contains(f10.Render(), "Figure 10") || !strings.Contains(f12.Render(), "Figure 12") {
		t.Fatal("render incomplete")
	}
}

func TestFigure11DepthIndependence(t *testing.T) {
	s := smallSuite()
	s.Names = []string{"vortex"} // the I-cache-heavy benchmark
	res, err := Figure11(s)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.Misses5 < 200 {
		t.Fatalf("vortex produced only %d I-misses; test needs pressure", row.Misses5)
	}
	if abs(row.SimPenalty5-row.SimPenalty9) > 1.5 {
		t.Fatalf("penalty depends on depth: %v vs %v", row.SimPenalty5, row.SimPenalty9)
	}
	if abs(row.SimPenalty5-float64(res.MissDelay)) > 3 {
		t.Fatalf("penalty %v, want ≈ miss delay %d", row.SimPenalty5, res.MissDelay)
	}
}

func TestFigure14ModelTracksSim(t *testing.T) {
	s := smallSuite()
	res, err := Figure14(s)
	if err != nil {
		t.Fatal(err)
	}
	// An isolated long miss costs about ΔD − rob_fill, where filling the
	// ROB behind it takes ROB/width cycles (168 at the baseline). Full
	// overlap reads far below, no overlap at all ΔD above.
	m := s.Machine
	isolated := float64(m.LongMissLatency) - float64(m.ROBSize)/float64(m.Width)
	for _, row := range res.Rows {
		if row.LongMisses < 50 {
			continue // too noisy to judge
		}
		if e := abs(relErr(row.ModelPenalty, row.SimPenalty)); e > 0.45 {
			t.Errorf("%s: model penalty %v vs sim %v (err %v)", row.Name, row.ModelPenalty, row.SimPenalty, e)
		}
		if abs(row.IsolatedPenalty-isolated) > 20 {
			t.Errorf("%s: isolated penalty %v, want within 20 cycles of ΔD − ROB/width = %v",
				row.Name, row.IsolatedPenalty, isolated)
		}
	}
	if !strings.Contains(res.tab().Render(), "eq.8") {
		t.Fatal("render incomplete")
	}
}

func TestFigure15HeadlineAccuracy(t *testing.T) {
	res, err := Figure15(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	// Short traces are noisier than the 500k-instruction runs reported
	// in EXPERIMENTS.md (compulsory warm-region long misses are a much
	// larger fraction of a 60k-instruction run, and this suite picks the
	// three hardest benchmarks): the paper's 5.8% average / 13% worst
	// becomes a generous 15% / 25% here.
	if res.MeanAbsErr > 0.15 {
		t.Fatalf("mean CPI error %v", res.MeanAbsErr)
	}
	if res.MaxAbsErr > 0.25 {
		t.Fatalf("worst CPI error %v on %s", res.MaxAbsErr, res.WorstBench)
	}
	if !strings.Contains(res.tab().Render(), "paper 5.8%") {
		t.Fatal("render incomplete")
	}
}

func TestFigure16StackStructure(t *testing.T) {
	res, err := Figure16(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	var mcf, vortex Figure15Row
	for _, row := range res.Rows {
		switch row.Name {
		case "mcf":
			mcf = row
		case "vortex":
			vortex = row
		}
	}
	// mcf is dominated by long data misses; vortex by the I-cache.
	if mcf.Estimate.DCacheCPI/mcf.Estimate.CPI < 0.4 {
		t.Fatalf("mcf D-cache share %v, want dominant", mcf.Estimate.DCacheCPI/mcf.Estimate.CPI)
	}
	if vortex.Estimate.ICacheShortCPI <= mcf.Estimate.ICacheShortCPI {
		t.Fatal("vortex should have the larger I-cache component")
	}
	if !strings.Contains(res.tab().Render(), "D$ share") {
		t.Fatal("render incomplete")
	}
}

func TestFigure17TrendShapes(t *testing.T) {
	res, err := Figure17(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	opt3 := res.Optimal[3]
	if opt3.Depth < 40 || opt3.Depth > 75 {
		t.Fatalf("width-3 optimum %d, paper ≈55", opt3.Depth)
	}
	if res.Optimal[8].Depth >= res.Optimal[2].Depth {
		t.Fatal("optimum should move shallower with width")
	}
	if !strings.Contains(res.tab().Render(), "optimal depths") {
		t.Fatal("render incomplete")
	}
}

func TestFigure18Quadratic(t *testing.T) {
	res, err := Figure18(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Fractions {
		ratio := res.Required[8][i].InstrBetweenMispredicts / res.Required[4][i].InstrBetweenMispredicts
		if ratio < 3 || ratio > 5.5 {
			t.Fatalf("width 4→8 requirement ratio %v at f=%v, want ≈4", ratio, res.Fractions[i])
		}
	}
	if !strings.Contains(res.tab().Render(), "width 16") {
		t.Fatal("render incomplete")
	}
}

func TestFigure19Peaks(t *testing.T) {
	res, err := Figure19(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	peak := func(width int) float64 {
		p := 0.0
		for _, pt := range res.Traces[width] {
			if pt.Issue > p {
				p = pt.Issue
			}
		}
		return p
	}
	// The paper's observation: 100 instructions between mispredictions
	// barely reach the width at 4 and stay well short at 8.
	if p := peak(4); p < 3.7 || p > 4 {
		t.Fatalf("width-4 peak %v, want ≈4", p)
	}
	if p := peak(8); p < 5.5 || p > 7.5 {
		t.Fatalf("width-8 peak %v, want ≈6–7", p)
	}
	if !strings.Contains(res.Render(), "width 8") {
		t.Fatal("render incomplete")
	}
}

func TestRegistryRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep is slow")
	}
	s := smallSuite()
	s.Names = []string{"gzip"}
	reg := DefaultRegistry()
	if len(reg.Labels()) < 16 {
		t.Fatalf("registry has %d experiments", len(reg.Labels()))
	}
	for _, label := range reg.Labels() {
		res, err := reg[label](context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Render() == "" {
			t.Fatalf("%s: empty render", label)
		}
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tb := &table{
		header: []string{"a", "b"},
		rows:   [][]string{{"x,y", `say "hi"`}},
	}
	csv := tb.CSV()
	want := "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n"
	if csv != want {
		t.Fatalf("CSV quoting wrong:\n got %q\nwant %q", csv, want)
	}
}

package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestExtensionClusters(t *testing.T) {
	res, err := ExtensionClusters(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 9 {
		t.Fatalf("%d points, want 3 benches × 3 cluster counts", len(res.Points))
	}
	// Partitioning must not speed anything up, in either methodology.
	byBench := map[string][]ClusterPoint{}
	for _, p := range res.Points {
		byBench[p.Bench] = append(byBench[p.Bench], p)
	}
	for bench, pts := range byBench {
		for i := 1; i < len(pts); i++ {
			if pts[i].SimCPI < pts[i-1].SimCPI-1e-9 {
				t.Errorf("%s: sim CPI fell with more clusters: %+v", bench, pts)
			}
			// The model may dip slightly for I-cache-heavy workloads:
			// the inflated L lengthens the drain, which shrinks the
			// equation-(4) I-cache penalty. Tolerate small decreases.
			if pts[i].ModelCPI < pts[i-1].ModelCPI-0.03 {
				t.Errorf("%s: model CPI fell sharply with more clusters: %+v", bench, pts)
			}
		}
		// The model's predicted clustering slowdown tracks the machine's
		// within a factor of ~2.
		simDelta := pts[len(pts)-1].SimCPI - pts[0].SimCPI
		modelDelta := pts[len(pts)-1].ModelCPI - pts[0].ModelCPI
		if simDelta > 0.02 && (modelDelta < simDelta*0.4 || modelDelta > simDelta*2.5) {
			t.Errorf("%s: model clustering delta %v vs sim %v", bench, modelDelta, simDelta)
		}
	}
	if !strings.Contains(res.tab().Render(), "partitioned") {
		t.Fatal("render incomplete")
	}
}

func TestPredictorStudy(t *testing.T) {
	s := smallSuite()
	s.Names = []string{"gzip"}
	res, err := PredictorStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	// gzip isn't in the study's benchmark list internally — the study
	// uses its own list; just verify structure and orderings.
	byPred := map[string]PredictorPoint{}
	for _, p := range res.Points {
		if p.Bench == "gzip" {
			byPred[p.Predictor] = p
		}
	}
	gshare, bimodal, taken := byPred["gshare"], byPred["bimodal"], byPred["always-taken"]
	if taken.MispredictRate <= gshare.MispredictRate {
		t.Fatalf("always-taken (%v) should mispredict more than gshare (%v)",
			taken.MispredictRate, gshare.MispredictRate)
	}
	if taken.SimCPI <= gshare.SimCPI {
		t.Fatal("a worse predictor must cost CPI in the machine")
	}
	if taken.ModelCPI <= gshare.ModelCPI {
		t.Fatal("a worse predictor must cost CPI in the model")
	}
	_ = bimodal
	if !strings.Contains(res.tab().Render(), "misp/branch") {
		t.Fatal("render incomplete")
	}
}

func TestWindowSweep(t *testing.T) {
	res, err := WindowSweep(context.Background(), smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	// CPI must be non-increasing in window size, in both methodologies,
	// for each benchmark.
	byBench := map[string][]SweepPoint{}
	for _, p := range res.Points {
		byBench[p.Bench] = append(byBench[p.Bench], p)
	}
	for bench, pts := range byBench {
		for i := 1; i < len(pts); i++ {
			if pts[i].SimCPI > pts[i-1].SimCPI+0.01 {
				t.Errorf("%s: sim CPI rose with window: %+v", bench, pts)
			}
			if pts[i].ModelCPI > pts[i-1].ModelCPI+0.07 {
				t.Errorf("%s: model CPI rose sharply with window: %+v", bench, pts)
			}
		}
	}
	if !strings.Contains(res.Render(), "knee") {
		t.Fatal("render incomplete")
	}
}

func TestROBSweep(t *testing.T) {
	res, err := ROBSweep(context.Background(), smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	byBench := map[string][]SweepPoint{}
	for _, p := range res.Points {
		byBench[p.Bench] = append(byBench[p.Bench], p)
	}
	// mcf: a bigger ROB overlaps more long misses → CPI falls, and the
	// model follows because f_LDM is re-derived per size.
	pts := byBench["mcf"]
	if len(pts) == 0 {
		t.Fatal("mcf missing from ROB sweep")
	}
	if pts[len(pts)-1].SimCPI >= pts[0].SimCPI {
		t.Fatalf("mcf sim CPI did not fall with ROB: %+v", pts)
	}
	if pts[len(pts)-1].ModelCPI >= pts[0].ModelCPI {
		t.Fatalf("mcf model CPI did not fall with ROB: %+v", pts)
	}
	if !strings.Contains(res.Render(), "rob") {
		t.Fatal("render incomplete")
	}
}

func TestStatSimStudy(t *testing.T) {
	res, err := StatSimStudy(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// The paper's claim: both methodologies land in the same accuracy
	// band. Loose bounds for the short suite.
	if res.MeanStatSimErr > 0.20 {
		t.Fatalf("statistical simulation error %v", res.MeanStatSimErr)
	}
	if res.MeanModelErr > 0.20 {
		t.Fatalf("model error %v", res.MeanModelErr)
	}
	if !strings.Contains(res.tab().Render(), "stat-sim") {
		t.Fatal("render incomplete")
	}
}

func TestBranchBurstRefinement(t *testing.T) {
	res, err := BranchBurstRefinement(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.BurstFactor <= 0 || r.BurstFactor > 1 {
			t.Fatalf("%s: burst factor %v", r.Name, r.BurstFactor)
		}
	}
	// Both derivations stay in the usual accuracy band on this suite.
	if res.MeanMeasuredErr > 0.2 || res.MeanMidpointErr > 0.2 {
		t.Fatalf("errors midpoint %v / measured %v", res.MeanMidpointErr, res.MeanMeasuredErr)
	}
	if !strings.Contains(res.tab().Render(), "burst factor") {
		t.Fatal("render incomplete")
	}
}

func TestFigure13PairCostsOneIsolatedPenalty(t *testing.T) {
	res, err := Figure13(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	// Equation (7): the overlapped pair's transient is about one
	// isolated transient plus the stagger, not two.
	if res.PairCycles > res.IsolatedCycles+res.Y+5 {
		t.Fatalf("pair transient %d cycles vs isolated %d+%d — overlap lost",
			res.PairCycles, res.IsolatedCycles, res.Y)
	}
	if res.PairCycles < res.IsolatedCycles {
		t.Fatalf("pair transient %d shorter than isolated %d", res.PairCycles, res.IsolatedCycles)
	}
	if !strings.Contains(res.Render(), "eq. 7") {
		t.Fatal("render incomplete")
	}
}

func TestCSVOutputs(t *testing.T) {
	res, err := Table1(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	csv := res.tab().CSV()
	if !strings.HasPrefix(csv, "bench,alpha,beta,R2,avg lat\n") {
		t.Fatalf("CSV header wrong: %q", csv[:40])
	}
	if strings.Count(csv, "\n") != 4 { // header + 3 benchmarks
		t.Fatalf("CSV rows: %q", csv)
	}
	f15, err := Figure15(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f15.tab().CSV(), "model,simulation") {
		t.Fatal("figure 15 CSV missing columns")
	}
}

func TestMethodologyComparison(t *testing.T) {
	res, err := MethodologyComparison(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// Every methodology lands within a loose band on the short suite.
	if res.MeanModelErr > 0.25 || res.MeanStatSimErr > 0.25 || res.MeanSampledErr > 0.30 {
		t.Fatalf("errors: model %v, statsim %v, sampled %v",
			res.MeanModelErr, res.MeanStatSimErr, res.MeanSampledErr)
	}
	// The model must be the cheapest by orders of magnitude.
	if res.ModelTime*100 > res.RefTime {
		t.Fatalf("model time %v not ≪ reference %v", res.ModelTime, res.RefTime)
	}
	if res.SampledFraction <= 0 || res.SampledFraction > 0.5 {
		t.Fatalf("sampled fraction %v", res.SampledFraction)
	}
	if !strings.Contains(res.tab().Render(), "stat-sim") || !strings.Contains(res.tab().CSV(), "bench,") {
		t.Fatal("render incomplete")
	}
}

func TestSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("five full pipelines is slow")
	}
	s := smallSuite()
	res, err := SeedRobustness(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MeanErrs) != 5 {
		t.Fatalf("%d seeds", len(res.MeanErrs))
	}
	if res.Mean > 0.2 {
		t.Fatalf("mean of means %v", res.Mean)
	}
	if res.Stddev > 0.05 {
		t.Fatalf("seed spread %v too wide", res.Stddev)
	}
	if !strings.Contains(res.tab().Render(), "mean of means") {
		t.Fatal("render incomplete")
	}
}

func TestFigure7TransientShape(t *testing.T) {
	res, err := Figure7(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	if res.PenaltyCycles <= 0 {
		t.Fatalf("injected misprediction cost %d cycles", res.PenaltyCycles)
	}
	// The refill gap covers at least the front-end depth (fetch restarts
	// only after the branch resolves).
	if res.ZeroCycles < res.FrontEndDepth {
		t.Fatalf("zero-issue gap %d below the front-end depth %d", res.ZeroCycles, res.FrontEndDepth)
	}
	if len(res.Clean) == 0 || len(res.Dirty) != len(res.Clean) {
		t.Fatalf("trace windows: clean %d, dirty %d", len(res.Clean), len(res.Dirty))
	}
	// Before the divergence the traces agree.
	for i := 0; i < 8 && i < len(res.Clean); i++ {
		if res.Clean[i] != res.Dirty[i] {
			t.Fatalf("traces differ before the event at offset %d", i)
		}
	}
	if !strings.Contains(res.Render(), "with event") {
		t.Fatal("render incomplete")
	}
}

func TestInOrderBaseline(t *testing.T) {
	res, err := InOrderBaseline(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.InOrderCPI <= r.OOOCPI {
			t.Errorf("%s: in-order (%v) not slower than OOO (%v)", r.Name, r.InOrderCPI, r.OOOCPI)
		}
		// Window size must barely matter in order.
		if abs(r.InOrderSmallWin-r.InOrderCPI)/r.InOrderCPI > 0.05 {
			t.Errorf("%s: in-order CPI depends on window: %v vs %v", r.Name, r.InOrderSmallWin, r.InOrderCPI)
		}
	}
	if !strings.Contains(res.tab().Render(), "slowdown") {
		t.Fatal("render incomplete")
	}
}

func TestLittlesLaw(t *testing.T) {
	res, err := LittlesLaw(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// The approximation holds to first order and errs on the high side
	// (dividing by the mean latency underestimates chain stretching).
	if res.MeanAbsErr > 0.3 {
		t.Fatalf("Little's-law error %v", res.MeanAbsErr)
	}
	for _, r := range res.Rows {
		if r.ScaledI1 < r.MeasuredIL*0.85 {
			t.Errorf("%s: I_1/L (%v) unexpectedly below measured (%v)", r.Name, r.ScaledI1, r.MeasuredIL)
		}
	}
	if !strings.Contains(res.tab().Render(), "I_1 / L") {
		t.Fatal("render incomplete")
	}
}

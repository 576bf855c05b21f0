// Package fomodel's root benchmark harness regenerates every table and
// figure of the paper (one benchmark per experiment — see DESIGN.md §4)
// and runs the ablation studies of DESIGN.md §5. Paper-facing quality
// metrics are attached to each benchmark with b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// both times the harness and reports the reproduced numbers (e.g.
// cpi_err_pct for Fig. 15 should sit near the paper's 5.8).
package fomodel_test

import (
	"context"
	"sync"
	"testing"

	"fomodel/internal/core"
	"fomodel/internal/experiments"
	"fomodel/internal/iw"
	"fomodel/internal/uarch"
	"fomodel/internal/workload"
)

// benchSuite is shared across benchmarks: trace generation and the
// functional analyses are paid once, so each benchmark times its own
// experiment. 120k instructions keeps one full sweep under a minute.
var (
	benchSuiteOnce sync.Once
	benchSuiteVal  *experiments.Suite
)

func benchSuite() *experiments.Suite {
	benchSuiteOnce.Do(func() {
		benchSuiteVal = experiments.NewSuite(120000, 1)
	})
	return benchSuiteVal
}

// run invokes an experiment b.N times and returns the last result for
// metric reporting.
func run[T any](b *testing.B, fn func(*experiments.Suite) (T, error)) T {
	b.Helper()
	s := benchSuite()
	var res T
	var err error
	for i := 0; i < b.N; i++ {
		res, err = fn(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func BenchmarkFigure2(b *testing.B) {
	res := run(b, experiments.Figure2)
	b.ReportMetric(100*res.MeanIndependentErr, "indep_err_pct")
	b.ReportMetric(100*res.MeanCompensatedErr, "comp_err_pct")
}

func BenchmarkFigure4(b *testing.B) {
	res := run(b, experiments.Figure4)
	b.ReportMetric(float64(len(res.Curves)), "curves")
}

func BenchmarkTable1(b *testing.B) {
	res := run(b, experiments.Table1)
	if vpr, ok := res.Row("vpr"); ok {
		b.ReportMetric(vpr.Beta, "vpr_beta")
	}
	if vortex, ok := res.Row("vortex"); ok {
		b.ReportMetric(vortex.Beta, "vortex_beta")
	}
}

func BenchmarkFigure5(b *testing.B) {
	res := run(b, experiments.Figure5)
	b.ReportMetric(float64(len(res.Rows)), "points")
}

func BenchmarkFigure6(b *testing.B) {
	res := run(b, experiments.Figure6)
	b.ReportMetric(float64(len(res.Widths)), "widths")
}

func BenchmarkFigure7(b *testing.B) {
	res := run(b, experiments.Figure7)
	b.ReportMetric(float64(res.PenaltyCycles), "penalty_cycles")
	b.ReportMetric(float64(res.ZeroCycles), "refill_gap_cycles")
}

func BenchmarkFigure8(b *testing.B) {
	res := run(b, experiments.Figure8)
	b.ReportMetric(res.Drain, "drain_cycles")
	b.ReportMetric(res.RampUp, "ramp_cycles")
	b.ReportMetric(res.Total, "total_cycles")
}

func BenchmarkFigure9(b *testing.B) {
	res := run(b, experiments.Figure9)
	var mean float64
	for _, r := range res.Rows {
		mean += r.SimPenalty5
	}
	b.ReportMetric(mean/float64(len(res.Rows)), "penalty5_cycles")
}

func BenchmarkFigure10(b *testing.B) {
	res := run(b, experiments.Figure10)
	b.ReportMetric(float64(len(res.Points)), "cycles")
}

func BenchmarkFigure11(b *testing.B) {
	res := run(b, experiments.Figure11)
	// Report the miss-weighted mean penalty (the low-miss benchmarks are
	// noise, as in the paper).
	var num, den float64
	for _, r := range res.Rows {
		num += r.SimPenalty5 * float64(r.Misses5)
		den += float64(r.Misses5)
	}
	if den > 0 {
		b.ReportMetric(num/den, "penalty_cycles")
	}
}

func BenchmarkFigure12(b *testing.B) {
	res := run(b, experiments.Figure12)
	b.ReportMetric(float64(len(res.Points)), "cycles")
}

func BenchmarkFigure14(b *testing.B) {
	res := run(b, experiments.Figure14)
	var num, den float64
	for _, r := range res.Rows {
		num += abs(r.ModelPenalty-r.SimPenalty) / r.SimPenalty
		den++
	}
	b.ReportMetric(100*num/den, "penalty_err_pct")
}

func BenchmarkFigure15(b *testing.B) {
	res := run(b, experiments.Figure15)
	b.ReportMetric(100*res.MeanAbsErr, "cpi_err_pct")
	b.ReportMetric(100*res.MaxAbsErr, "worst_err_pct")
}

func BenchmarkFigure16(b *testing.B) {
	res := run(b, experiments.Figure16)
	for _, r := range res.Rows {
		if r.Name == "mcf" {
			b.ReportMetric(100*r.Estimate.DCacheCPI/r.Estimate.CPI, "mcf_dshare_pct")
		}
	}
}

func BenchmarkFigure17(b *testing.B) {
	res := run(b, experiments.Figure17)
	b.ReportMetric(float64(res.Optimal[3].Depth), "opt_depth_w3")
	b.ReportMetric(float64(res.Optimal[8].Depth), "opt_depth_w8")
}

func BenchmarkFigure18(b *testing.B) {
	res := run(b, experiments.Figure18)
	mid := len(res.Fractions) / 2
	b.ReportMetric(res.Required[8][mid].InstrBetweenMispredicts/
		res.Required[4][mid].InstrBetweenMispredicts, "double_width_ratio")
}

func BenchmarkFigure19(b *testing.B) {
	res := run(b, experiments.Figure19)
	peak := 0.0
	for _, p := range res.Traces[8] {
		if p.Issue > peak {
			peak = p.Issue
		}
	}
	b.ReportMetric(peak, "peak_issue_w8")
}

// --- Ablation benches (DESIGN.md §5) -----------------------------------

// figure15Error recomputes the Fig. 15 mean CPI error with per-workload
// input/option mutations, against cached simulator runs.
func figure15Error(b *testing.B, s *experiments.Suite,
	mutate func(*core.Inputs, *core.Options)) float64 {
	b.Helper()
	var sumErr, n float64
	for _, name := range s.Names {
		w, err := s.Workload(name)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := s.Simulate(w, nil)
		if err != nil {
			b.Fatal(err)
		}
		in := w.Inputs
		opts := core.Options{}
		mutate(&in, &opts)
		est, err := s.Machine.Estimate(in, opts)
		if err != nil {
			b.Fatal(err)
		}
		sumErr += abs(est.CPI-sim.CPI()) / sim.CPI()
		n++
	}
	return sumErr / n
}

// BenchmarkAblationTransientEpsilon sweeps the ramp-up convergence
// threshold: too tight overestimates the branch penalty, too loose
// underestimates it.
func BenchmarkAblationTransientEpsilon(b *testing.B) {
	s := benchSuite()
	var errs [3]float64
	for i := 0; i < b.N; i++ {
		for j, eps := range []float64{0.02, 0.05, 0.20} {
			errs[j] = figure15Error(b, s, func(in *core.Inputs, o *core.Options) {
				o.RampEpsilon = eps
			})
		}
	}
	b.ReportMetric(100*errs[0], "err_eps02_pct")
	b.ReportMetric(100*errs[1], "err_eps05_pct")
	b.ReportMetric(100*errs[2], "err_eps20_pct")
}

// BenchmarkAblationBranchBurst compares the paper's midpoint heuristic
// against the isolated upper bound and a burst-of-4 assumption. (A
// burst of 2 is algebraically identical to the midpoint: (ΔP+iso)/2 =
// ΔP + (drain+ramp)/2.)
func BenchmarkAblationBranchBurst(b *testing.B) {
	s := benchSuite()
	var errs [3]float64
	for i := 0; i < b.N; i++ {
		for j, mode := range []core.BranchPenaltyMode{
			core.BranchMidpoint, core.BranchIsolated, core.BranchBurst,
		} {
			errs[j] = figure15Error(b, s, func(in *core.Inputs, o *core.Options) {
				o.BranchMode = mode
				o.BurstLength = 4
			})
		}
	}
	b.ReportMetric(100*errs[0], "err_midpoint_pct")
	b.ReportMetric(100*errs[1], "err_isolated_pct")
	b.ReportMetric(100*errs[2], "err_burst4_pct")
}

// BenchmarkAblationDMissOverlap disables equation (8)'s overlap factor
// (treating every long miss as isolated), which overcharges clustered
// workloads like mcf.
func BenchmarkAblationDMissOverlap(b *testing.B) {
	s := benchSuite()
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = figure15Error(b, s, func(in *core.Inputs, o *core.Options) {})
		without = figure15Error(b, s, func(in *core.Inputs, o *core.Options) {
			in.OverlapFactor = 1
		})
	}
	b.ReportMetric(100*with, "err_eq8_pct")
	b.ReportMetric(100*without, "err_isolated_only_pct")
}

// BenchmarkAblationSaturation compares the hard clip min(width, curve)
// against the smooth soft-min approximation.
func BenchmarkAblationSaturation(b *testing.B) {
	s := benchSuite()
	var hard, smooth float64
	for i := 0; i < b.N; i++ {
		hard = figure15Error(b, s, func(in *core.Inputs, o *core.Options) {})
		smooth = figure15Error(b, s, func(in *core.Inputs, o *core.Options) {
			o.SmoothSaturation = true
			in.MeasuredSteadyIPC = 0 // let the curve shape matter
		})
	}
	b.ReportMetric(100*hard, "err_hardclip_pct")
	b.ReportMetric(100*smooth, "err_smooth_pct")
}

// --- Extension benches (paper §7 future-work features) ------------------

func BenchmarkExtensionFU(b *testing.B) {
	res := run(b, experiments.ExtensionFU)
	b.ReportMetric(100*res.MeanAbsErr, "cpi_err_pct")
}

func BenchmarkExtensionFetchBuffer(b *testing.B) {
	res := run(b, experiments.ExtensionFetchBuffer)
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	b.ReportMetric(first.SimCPI-last.SimCPI, "sim_cpi_saved")
	b.ReportMetric(first.ModelCPI-last.ModelCPI, "model_cpi_saved")
}

func BenchmarkExtensionTLB(b *testing.B) {
	res := run(b, experiments.ExtensionTLB)
	b.ReportMetric(100*res.MeanAbsErr, "cpi_err_pct")
}

func BenchmarkExtensionClusters(b *testing.B) {
	res := run(b, experiments.ExtensionClusters)
	// Report the mean clustering slowdown the machine observed from 1→4
	// clusters across the swept benchmarks.
	byBench := map[string][]float64{}
	for _, p := range res.Points {
		byBench[p.Bench] = append(byBench[p.Bench], p.SimCPI)
	}
	var slow float64
	for _, cpis := range byBench {
		slow += cpis[len(cpis)-1] - cpis[0]
	}
	b.ReportMetric(slow/float64(len(byBench)), "cluster_cpi_cost")
}

func BenchmarkPredictorStudy(b *testing.B) {
	res := run(b, experiments.PredictorStudy)
	for name, e := range res.MeanAbsErrByPredictor {
		b.ReportMetric(100*e, "err_"+name+"_pct")
	}
}

func BenchmarkWindowSweep(b *testing.B) {
	res := run(b, func(s *experiments.Suite) (*experiments.SweepResult, error) {
		return experiments.WindowSweep(context.Background(), s)
	})
	b.ReportMetric(100*res.MeanAbsErr, "cpi_err_pct")
}

func BenchmarkROBSweep(b *testing.B) {
	res := run(b, func(s *experiments.Suite) (*experiments.SweepResult, error) {
		return experiments.ROBSweep(context.Background(), s)
	})
	b.ReportMetric(100*res.MeanAbsErr, "cpi_err_pct")
}

func BenchmarkStatSimStudy(b *testing.B) {
	res := run(b, experiments.StatSimStudy)
	b.ReportMetric(100*res.MeanModelErr, "model_err_pct")
	b.ReportMetric(100*res.MeanStatSimErr, "statsim_err_pct")
}

func BenchmarkMethodologyComparison(b *testing.B) {
	res := run(b, experiments.MethodologyComparison)
	b.ReportMetric(100*res.MeanModelErr, "model_err_pct")
	b.ReportMetric(100*res.MeanStatSimErr, "statsim_err_pct")
	b.ReportMetric(100*res.MeanSampledErr, "sampled_err_pct")
}

func BenchmarkInOrderBaseline(b *testing.B) {
	res := run(b, experiments.InOrderBaseline)
	var slow float64
	for _, r := range res.Rows {
		slow += r.Slowdown
	}
	b.ReportMetric(slow/float64(len(res.Rows)), "inorder_slowdown")
}

func BenchmarkLittlesLaw(b *testing.B) {
	res := run(b, experiments.LittlesLaw)
	b.ReportMetric(100*res.MeanAbsErr, "approx_err_pct")
}

// --- Engine parallelism benches -----------------------------------------

// fullSuiteWorkloads measures the engine's headline win: computing every
// workload analysis on a fresh suite, sequentially vs. on a
// GOMAXPROCS-sized pool. The analyses are embarrassingly parallel, so on a
// machine with ≥4 cores BenchmarkSuiteWarmParallel should run ≥2x faster
// than BenchmarkSuiteWarmSequential; on a single-core runner the two
// necessarily tie.
func fullSuiteWorkloads(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(60000, 1)
		s.Workers = workers
		_, err := experiments.MapWorkloads(s, s.Names, 1, func(*experiments.Workload, int) (struct{}, error) {
			return struct{}{}, nil
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteWarmSequential(b *testing.B) { fullSuiteWorkloads(b, 1) }

func BenchmarkSuiteWarmParallel(b *testing.B) {
	fullSuiteWorkloads(b, experiments.DefaultWorkers())
}

// fullExperimentRun times a representative experiment battery on a fresh
// suite at the given pool size; the workload analyses dominate, with the
// per-benchmark simulator runs of fig15/fig9 close behind — both fan out.
func fullExperimentRun(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(60000, 1)
		s.Names = []string{"gzip", "mcf", "vortex", "vpr", "twolf", "gap"}
		s.Workers = workers
		if _, err := experiments.Figure15(s); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Figure9(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExperimentsSequential(b *testing.B) { fullExperimentRun(b, 1) }

func BenchmarkExperimentsParallel(b *testing.B) {
	fullExperimentRun(b, experiments.DefaultWorkers())
}

// --- Component micro-benchmarks ----------------------------------------

func BenchmarkWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate("gcc", 100000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetailedSimulator(b *testing.B) {
	t, err := workload.Generate("gzip", 100000, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := uarch.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := uarch.Simulate(t, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(t.Len()))
}

func BenchmarkIWCharacteristic(b *testing.B) {
	t, err := workload.Generate("gzip", 100000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := iw.Characteristic(t, iw.DefaultWindows(), iw.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyticalModel(b *testing.B) {
	s := benchSuite()
	w, err := s.Workload("gzip")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Machine.Estimate(w.Inputs, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

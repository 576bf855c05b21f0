// Package report generates the reproduction report: it runs the paper's
// experiments, extracts the headline metrics, checks each against the
// paper's reported value (with shape-level tolerances — see DESIGN.md §2
// for why absolute CPIs are not the target), and writes a self-contained
// markdown document with verdicts and the full result tables.
package report

import (
	"fmt"
	"io"
	"time"

	"fomodel/internal/experiments"
)

// Check is one paper-vs-measured verdict.
type Check struct {
	// ID names the paper artifact ("fig8", "table1", …).
	ID string
	// Claim states what the paper reports.
	Claim string
	// Measured states what this run produced.
	Measured string
	// Pass records whether the measured value satisfies the tolerance.
	Pass bool
}

// Report holds the verdicts and the rendered experiment bodies.
type Report struct {
	Checks   []Check
	Sections []Section
	// Passed / Total summarize the verdicts.
	Passed, Total int
	// Duration is the total experiment wall time.
	Duration time.Duration
	// N and Seed record the workload configuration.
	N    int
	Seed uint64
}

// Section is one experiment's rendered output.
type Section struct {
	Label string
	Body  string
}

// Generate runs the checked experiments on the suite and assembles the
// report. The experiments are independent, so they fan out across a
// worker pool sized by s.Workers; the checks and sections are assembled
// sequentially afterwards, in the fixed report order, so the generated
// document is identical at any parallelism.
func Generate(s *experiments.Suite) (*Report, error) {
	start := time.Now()
	r := &Report{N: s.N, Seed: s.Seed}

	check := func(id, claim string, pass bool, measuredFormat string, args ...any) {
		r.Checks = append(r.Checks, Check{
			ID:       id,
			Claim:    claim,
			Measured: fmt.Sprintf(measuredFormat, args...),
			Pass:     pass,
		})
	}
	section := func(label string, res experiments.Renderable) {
		r.Sections = append(r.Sections, Section{Label: label, Body: res.Render()})
	}

	// Compute every checked experiment on a pool sized by s.Workers. Each
	// job writes only its own result variable, so the fan-out needs no
	// locks; the verdict logic below runs once every job has finished,
	// and the earliest failure in job order wins.
	var (
		f8  *experiments.Figure8Result
		t1  *experiments.Table1Result
		f2  *experiments.Figure2Result
		f9  *experiments.Figure9Result
		f11 *experiments.Figure11Result
		f14 *experiments.Figure14Result
		f15 *experiments.Figure15Result
		f16 *experiments.Figure16Result
		f17 *experiments.Figure17Result
		f18 *experiments.Figure18Result
		f19 *experiments.Figure19Result
		ss  *experiments.StatSimResult
		rb  *experiments.RefinementResult
	)
	jobs := []struct {
		name string
		run  func() error
	}{
		{"fig8", func() (err error) { f8, err = experiments.Figure8(s); return }},
		{"table1", func() (err error) { t1, err = experiments.Table1(s); return }},
		{"fig2", func() (err error) { f2, err = experiments.Figure2(s); return }},
		{"fig9", func() (err error) { f9, err = experiments.Figure9(s); return }},
		{"fig11", func() (err error) { f11, err = experiments.Figure11(s); return }},
		{"fig14", func() (err error) { f14, err = experiments.Figure14(s); return }},
		{"fig15", func() (err error) { f15, err = experiments.Figure15(s); return }},
		{"fig16", func() (err error) { f16, err = experiments.Figure16(s); return }},
		{"fig17", func() (err error) { f17, err = experiments.Figure17(s); return }},
		{"fig18", func() (err error) { f18, err = experiments.Figure18(s); return }},
		{"fig19", func() (err error) { f19, err = experiments.Figure19(s); return }},
		{"statsim", func() (err error) { ss, err = experiments.StatSimStudy(s); return }},
		{"refine-branch", func() (err error) { rb, err = experiments.BranchBurstRefinement(s); return }},
	}
	err := experiments.RunOrdered(s.Workers, len(jobs), func(i int) (struct{}, error) {
		start := time.Now()
		err := jobs[i].run()
		s.Timings.Record("experiment", jobs[i].name, time.Since(start))
		return struct{}{}, err
	}, nil)
	if err != nil {
		return nil, err
	}

	// Figure 8 — the canonical transient numbers.
	check("fig8", "drain 2.1, ramp-up 2.7, total 9.7 cycles",
		within(f8.Drain, 1.8, 2.4) && within(f8.RampUp, 2.4, 3.0) && within(f8.Total, 9.2, 10.2),
		"drain %.2f, ramp %.2f, total %.2f", f8.Drain, f8.RampUp, f8.Total)
	section("fig8", f8)

	// Table 1 — the parameter spread.
	vortex, _ := t1.Row("vortex")
	gzip, _ := t1.Row("gzip")
	vpr, _ := t1.Row("vpr")
	check("table1", "beta: vortex (0.7) > gzip (0.5) > vpr (0.3); vpr has the highest latency",
		vortex.Beta > gzip.Beta && gzip.Beta > vpr.Beta &&
			vpr.AvgLatency > vortex.AvgLatency && vpr.AvgLatency > gzip.AvgLatency,
		"beta %.2f / %.2f / %.2f, L(vpr) %.2f", vortex.Beta, gzip.Beta, vpr.Beta, vpr.AvgLatency)
	section("table1", experiments.Table(t1))

	// Figure 2 — miss-event independence.
	check("fig2", "independent-sum IPC error ≈5% mean; compensation improves it",
		f2.MeanIndependentErr < 0.08 && f2.MeanCompensatedErr <= f2.MeanIndependentErr,
		"independent %.1f%%, compensated %.1f%%", 100*f2.MeanIndependentErr, 100*f2.MeanCompensatedErr)
	section("fig2", experiments.Table(f2))

	// Figure 9 — branch penalty exceeds the pipeline depth.
	allAbove := true
	for _, row := range f9.Rows {
		if row.SimPenalty5 <= 5 || row.SimPenalty9 <= row.SimPenalty5 {
			allAbove = false
		}
	}
	check("fig9", "penalty exceeds the front-end depth and grows with it",
		allAbove, "all %d benchmarks above dP at both depths: %v", len(f9.Rows), allAbove)
	section("fig9", experiments.Table(f9))

	// Figure 11 — I-cache penalty ≈ miss delay, depth-independent.
	var num5, num9, den float64
	for _, row := range f11.Rows {
		if row.Misses5 < 1000 {
			continue // noise, as in the paper
		}
		num5 += row.SimPenalty5 * float64(row.Misses5)
		num9 += row.SimPenalty9 * float64(row.Misses5)
		den += float64(row.Misses5)
	}
	pen5, pen9 := num5/den, num9/den
	check("fig11", "penalty ≈ the 8-cycle miss delay, independent of depth",
		within(pen5, 6, 9) && abs(pen5-pen9) < 0.5,
		"%.2f at dP=5, %.2f at dP=9 (miss-weighted)", pen5, pen9)
	section("fig11", experiments.Table(f11))

	// Figure 14 — d-miss penalty model tracks simulation.
	var errSum, errN float64
	for _, row := range f14.Rows {
		if row.LongMisses < 200 {
			continue
		}
		errSum += abs(row.ModelPenalty-row.SimPenalty) / row.SimPenalty
		errN++
	}
	check("fig14", "eq. (8) penalty reasonably close to simulation",
		errSum/errN < 0.25, "mean |err| %.1f%% across %d benchmarks", 100*errSum/errN, int(errN))
	section("fig14", experiments.Table(f14))

	// Figure 15 — the headline accuracy.
	check("fig15", "average CPI error 5.8%, worst 13%",
		f15.MeanAbsErr < 0.10 && f15.MaxAbsErr < 0.20,
		"average %.1f%%, worst %.1f%% (%s)", 100*f15.MeanAbsErr, 100*f15.MaxAbsErr, f15.WorstBench)
	section("fig15", experiments.Table(f15))

	// Figure 16 — stack composition.
	var mcfShare, twolfShare float64
	for _, row := range f16.Rows {
		share := row.Estimate.DCacheCPI / row.Estimate.CPI
		switch row.Name {
		case "mcf":
			mcfShare = share
		case "twolf":
			twolfShare = share
		}
	}
	check("fig16", "long d-misses ≈70% of mcf's CPI and ≈60% of twolf's",
		mcfShare > 0.5 && twolfShare > 0.45,
		"mcf %.0f%%, twolf %.0f%%", 100*mcfShare, 100*twolfShare)
	section("fig16", experiments.Table(f16))

	// Figure 17 — optimal pipeline depth.
	check("fig17", "optimum ≈55 stages at width 3, shallower for wider issue",
		within(float64(f17.Optimal[3].Depth), 45, 70) && f17.Optimal[8].Depth < f17.Optimal[2].Depth,
		"optima %d/%d/%d/%d at widths 2/3/4/8",
		f17.Optimal[2].Depth, f17.Optimal[3].Depth, f17.Optimal[4].Depth, f17.Optimal[8].Depth)
	section("fig17", experiments.Table(f17))

	// Figure 18 — quadratic prediction requirement.
	mid := len(f18.Fractions) / 2
	ratio := f18.Required[8][mid].InstrBetweenMispredicts / f18.Required[4][mid].InstrBetweenMispredicts
	check("fig18", "doubling the width quadruples the required misprediction distance",
		within(ratio, 3, 5), "ratio %.1f×", ratio)
	section("fig18", experiments.Table(f18))

	// Figure 19 — ramp peaks.
	peak := func(width int) float64 {
		p := 0.0
		for _, pt := range f19.Traces[width] {
			if pt.Issue > p {
				p = pt.Issue
			}
		}
		return p
	}
	check("fig19", "width 4 barely reaches 4; width 8 barely exceeds 6",
		within(peak(4), 3.7, 4.0) && within(peak(8), 5.5, 7.5),
		"peaks %.2f and %.2f", peak(4), peak(8))
	section("fig19", f19)

	// Statistical simulation comparison.
	check("statsim", "statistical simulation and the model land in a similar accuracy band",
		ss.MeanStatSimErr < 0.10 && ss.MeanModelErr < 0.10,
		"model %.1f%%, statistical simulation %.1f%%", 100*ss.MeanModelErr, 100*ss.MeanStatSimErr)
	section("statsim", experiments.Table(ss))

	// Branch-burst refinement.
	check("refine-branch", "measured burst statistics improve on the midpoint heuristic (§7 #3)",
		rb.MeanMeasuredErr <= rb.MeanMidpointErr+0.01,
		"midpoint %.1f%%, measured %.1f%%", 100*rb.MeanMidpointErr, 100*rb.MeanMeasuredErr)
	section("refine-branch", experiments.Table(rb))

	for _, c := range r.Checks {
		r.Total++
		if c.Pass {
			r.Passed++
		}
	}
	r.Duration = time.Since(start)
	return r, nil
}

// Write renders the report as markdown.
func (r *Report) Write(w io.Writer) error {
	fmt.Fprintf(w, "# Reproduction report — A First-Order Superscalar Processor Model\n\n")
	fmt.Fprintf(w, "Karkhanis & Smith, ISCA 2004 · %d-instruction traces, seed %d · %d/%d checks passed · %s\n\n",
		r.N, r.Seed, r.Passed, r.Total, r.Duration.Round(time.Second))
	fmt.Fprintf(w, "| check | paper | measured | verdict |\n|---|---|---|---|\n")
	for _, c := range r.Checks {
		verdict := "PASS"
		if !c.Pass {
			verdict = "**CHECK**"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n", c.ID, c.Claim, c.Measured, verdict)
	}
	fmt.Fprintf(w, "\n")
	for _, sec := range r.Sections {
		fmt.Fprintf(w, "## %s\n\n```\n%s```\n\n", sec.Label, sec.Body)
	}
	return nil
}

func within(v, lo, hi float64) bool { return v >= lo && v <= hi }

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

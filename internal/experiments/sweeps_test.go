package experiments

import (
	"context"
	"strings"
	"testing"

	"fomodel/internal/core"
	"fomodel/internal/stats"
)

func TestSweepValidate(t *testing.T) {
	good := SweepSpec{Param: "width", Benches: []string{"gzip"}, Values: []int{2, 4}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []SweepSpec{
		{Param: "bogus", Benches: []string{"gzip"}, Values: []int{2}},
		{Param: "width", Benches: nil, Values: []int{2}},
		{Param: "width", Benches: []string{"nonsense"}, Values: []int{2}},
		{Param: "width", Benches: []string{"gzip"}, Values: nil},
		{Param: "width", Benches: []string{"gzip"}, Values: []int{0}},
	}
	for i, sp := range cases {
		if err := sp.Validate(); err == nil {
			t.Fatalf("case %d: invalid spec %+v accepted", i, sp)
		}
	}
}

func TestSweepParams(t *testing.T) {
	params := strings.Join(SweepParams(), ",")
	for _, want := range []string{"window", "rob", "width", "depth"} {
		if !strings.Contains(params, want) {
			t.Fatalf("parameter %q missing from %s", want, params)
		}
	}
}

// TestSweepParamsDeterministic pins that the parameter enumeration —
// and the Validate error message built from it — is sorted and stable
// across repeated map iterations, so an unknown-parameter error is the
// same bytes on every request and every process.
func TestSweepParamsDeterministic(t *testing.T) {
	const wantList = "depth, rob, width, window"
	wantErr := `experiments: unknown sweep parameter "bogus" (known: ` + wantList + `)`
	for i := 0; i < 20; i++ {
		if got := strings.Join(SweepParams(), ", "); got != wantList {
			t.Fatalf("iteration %d: SweepParams = %q, want %q", i, got, wantList)
		}
		err := SweepSpec{Param: "bogus", Benches: []string{"gzip"}, Values: []int{2}}.Validate()
		if err == nil || err.Error() != wantErr {
			t.Fatalf("iteration %d: Validate error = %v, want %q", i, err, wantErr)
		}
	}
}

// TestSweepCanceled is the serving daemon's client-disconnect guarantee
// at the engine level: a canceled context stops the sweep before any grid
// cell resolves its workload, at one worker and at several, and the
// sweep fails with the context's error as it is.
func TestSweepCanceled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := smallSuite()
		s.Workers = workers
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := Sweep(ctx, s, SweepSpec{
			Param: "width", Benches: []string{"gzip", "mcf"}, Values: []int{2, 4, 8},
		})
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if workloads, sims := s.Counters(); workloads != 0 || sims != 0 {
			t.Fatalf("workers=%d: canceled sweep still ran %d workload analyses and %d simulations", workers, workloads, sims)
		}
		if traces, _ := s.Caches(); traces.Len() != 0 {
			t.Fatalf("workers=%d: canceled sweep still loaded %d traces", workers, traces.Len())
		}
	}
}

// TestGridStudyErrorText pins which grid studies name the benchmark in a
// failure: the in-order, cluster and predictor studies and the sweeps
// return the cause as it is, a per-benchmark figure prefixes it.
func TestGridStudyErrorText(t *testing.T) {
	s := NewSuite(0, 1)
	s.Names = []string{"gzip"}
	const cause = "workload gzip: trace length 0 must be positive"
	studies := map[string]func() error{
		"inorder":     func() error { _, err := InOrderBaseline(s); return err },
		"ext-cluster": func() error { _, err := ExtensionClusters(s); return err },
		"predictors":  func() error { _, err := PredictorStudy(s); return err },
		"sweep": func() error {
			_, err := Sweep(context.Background(), s, SweepSpec{Param: "width", Benches: []string{"gzip"}, Values: []int{2}})
			return err
		},
		"table1": func() error { _, err := Table1(s); return err },
	}
	for name, run := range studies {
		want := cause
		if name == "table1" {
			want = "experiments: gzip: " + cause
		}
		if err := run(); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", name, err, want)
		}
	}
}

func TestSweepWidthAndDepth(t *testing.T) {
	s := smallSuite()
	for _, param := range []string{"width", "depth"} {
		res, err := Sweep(context.Background(), s, SweepSpec{
			Param: param, Benches: []string{"gzip"}, Values: []int{2, 4},
		})
		if err != nil {
			t.Fatalf("%s: %v", param, err)
		}
		if len(res.Points) != 2 {
			t.Fatalf("%s: %d points, want 2", param, len(res.Points))
		}
		for i, want := range []int{2, 4} {
			p := res.Points[i]
			if p.Value != want || p.SimCPI <= 0 || p.ModelCPI <= 0 {
				t.Fatalf("%s: bad point %+v", param, p)
			}
		}
		if res.Points[0].SimCPI <= res.Points[1].SimCPI && param == "width" {
			t.Fatalf("width 2 should be slower than width 4: %+v", res.Points)
		}
		if res.Title == "" || !strings.Contains(res.Render(), param) {
			t.Fatalf("%s: render missing param:\n%s", param, res.Render())
		}
	}
}

// TestWindowSweepAboveROBRegroups pins the model side of a window cell
// that outgrows the baseline ROB: the ROB is raised to the window for
// the simulator, so the model's miss grouping must follow it. Each
// cell's model CPI must equal the one built from a fresh analysis at
// the raised ROB.
func TestWindowSweepAboveROBRegroups(t *testing.T) {
	s := smallSuite()
	res, err := Sweep(context.Background(), s, SweepSpec{
		Param: "window", Benches: s.Names, Values: []int{192, 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		w, err := s.Workload(pt.Bench)
		if err != nil {
			t.Fatal(err)
		}
		scfg := s.Sim.Analysis()
		scfg.ROBSize = pt.Value
		sum, err := stats.Analyze(w.Trace, scfg)
		if err != nil {
			t.Fatal(err)
		}
		in, err := core.InputsFromCurve(w.Law, w.Points, pt.Value, sum)
		if err != nil {
			t.Fatal(err)
		}
		m := s.Machine
		m.WindowSize, m.ROBSize = pt.Value, pt.Value
		est, err := m.Estimate(in, modelOptions())
		if err != nil {
			t.Fatal(err)
		}
		if pt.ModelCPI != est.CPI {
			t.Errorf("%s window %d: model CPI %v, want %v from an analysis at ROB %d",
				pt.Bench, pt.Value, pt.ModelCPI, est.CPI, pt.Value)
		}
	}
}

package experiments

import (
	"strings"
	"testing"

	"fomodel/internal/uarch"
)

func TestExtensionFU(t *testing.T) {
	res, err := ExtensionFU(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// The model should stay in the same accuracy band as the baseline
	// Fig. 15 on this suite.
	if res.MeanAbsErr > 0.20 {
		t.Fatalf("FU-limited model error %v", res.MeanAbsErr)
	}
	if !strings.Contains(res.tab().Render(), "functional units") {
		t.Fatal("render incomplete")
	}
}

func TestExtensionFULimitsRaiseSimCPI(t *testing.T) {
	s := smallSuite()
	w, err := s.Workload("mcf") // load-heavy: the single load port binds
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Simulate(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	fu := DefaultFUCounts()
	limited, err := s.Simulate(w, func(c *uarch.Config) { c.FUCounts = fu })
	if err != nil {
		t.Fatal(err)
	}
	if limited.CPI() <= base.CPI() {
		t.Fatalf("FU limits did not raise CPI: %v vs %v", limited.CPI(), base.CPI())
	}
}

func TestExtensionFetchBuffer(t *testing.T) {
	res, err := ExtensionFetchBuffer(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("%d sweep points", len(res.Points))
	}
	// Simulated CPI must be non-increasing in buffer size.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].SimCPI > res.Points[i-1].SimCPI+1e-9 {
			t.Fatalf("sim CPI rose with buffer: %+v", res.Points)
		}
		if res.Points[i].ModelCPI > res.Points[i-1].ModelCPI+1e-9 {
			t.Fatalf("model CPI rose with buffer: %+v", res.Points)
		}
	}
	if !strings.Contains(res.tab().Render(), "fetch buffer") {
		t.Fatal("render incomplete")
	}
}

func TestExtensionTLB(t *testing.T) {
	res, err := ExtensionTLB(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.MeanAbsErr > 0.20 {
		t.Fatalf("TLB model error %v", res.MeanAbsErr)
	}
	// The TLB must raise mcf's CPI versus the baseline Fig. 15 value
	// (huge pointer-chased working set → TLB misses).
	f15, err := Figure15(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	var baseMcf, tlbMcf float64
	for _, r := range f15.Rows {
		if r.Name == "mcf" {
			baseMcf = r.SimCPI
		}
	}
	for _, r := range res.Rows {
		if r.Name == "mcf" {
			tlbMcf = r.SimCPI
		}
	}
	if tlbMcf <= baseMcf {
		t.Fatalf("TLB did not cost mcf anything: %v vs %v", tlbMcf, baseMcf)
	}
	if !strings.Contains(res.tab().Render(), "TLB") {
		t.Fatal("render incomplete")
	}
}

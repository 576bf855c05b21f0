package experiments

import (
	"reflect"
	"testing"

	"fomodel/internal/cache"
	"fomodel/internal/core"
	"fomodel/internal/isa"
	"fomodel/internal/uarch"
)

// TestModelMachineSetsEveryField guards the one simulator-to-model
// projection: every uarch.Config field with a model counterpart gets a
// distinct non-default value, and every field of the derived machine
// must be set from it. A new core.Machine field fails the test until
// ModelMachine sets it.
func TestModelMachineSetsEveryField(t *testing.T) {
	cfg := uarch.DefaultConfig()
	cfg.Width = 6
	cfg.FrontEndDepth = 7
	cfg.WindowSize = 36
	cfg.ROBSize = 96
	cfg.Hierarchy.ShortMissLatency = 11
	cfg.Hierarchy.LongMissLatency = 321
	cfg.FUCounts[isa.Mul] = 2
	cfg.FetchBufferSize = 12
	cfg.TLB = &cache.TLBConfig{Entries: 32, PageBytes: 8192, MissLatency: 55}
	cfg.Clusters = 3
	cfg.BypassLatency = 4

	var fu [isa.NumClasses]int
	fu[isa.Mul] = 2
	want := core.Machine{
		Width:            6,
		FrontEndDepth:    7,
		WindowSize:       36,
		ROBSize:          96,
		ShortMissLatency: 11,
		LongMissLatency:  321,
		FUCounts:         fu,
		FetchBuffer:      12,
		TLBMissLatency:   55,
		Clusters:         3,
		BypassLatency:    4,
	}
	got := ModelMachine(cfg)
	if got != want {
		t.Errorf("ModelMachine = %+v, want %+v", got, want)
	}
	v := reflect.ValueOf(got)
	for i := range v.NumField() {
		if v.Field(i).IsZero() {
			t.Errorf("core.Machine.%s is not set from the simulator configuration", v.Type().Field(i).Name)
		}
	}

	cfg.TLB = nil
	if m := ModelMachine(cfg); m.TLBMissLatency != 0 {
		t.Errorf("TLBMissLatency = %d without a TLB, want 0", m.TLBMissLatency)
	}
	if m := ModelMachine(uarch.DefaultConfig()); m != core.DefaultMachine() {
		t.Errorf("ModelMachine(DefaultConfig) = %+v, want the model's default %+v", m, core.DefaultMachine())
	}
}

// TestCompareBaseline pins Compare at the suite's own machine point to
// the model on the workload's inputs and to the baseline simulation,
// computed without Compare.
func TestCompareBaseline(t *testing.T) {
	s := smallSuite()
	w, err := s.Workload("gzip")
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compare(w, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	est, err := s.Machine.Estimate(w.Inputs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := uarch.Simulate(w.Trace, s.Sim)
	if err != nil {
		t.Fatal(err)
	}
	if c.Estimate != est {
		t.Errorf("Compare's model half differs from the workload's estimate:\n got %+v\nwant %+v", c.Estimate, est)
	}
	if c.Sim.Cycles != sim.Cycles || c.Analysis != w.AnalysisArtifact {
		t.Errorf("Compare simulated %d cycles on analysis %p, want %d on the workload's %p",
			c.Sim.Cycles, c.Analysis, sim.Cycles, w.AnalysisArtifact)
	}
	if c.Estimate.CPI <= c.Estimate.SteadyCPI {
		t.Error("estimate lost its miss-event components")
	}
}

// TestCompareAnalysisLookups pins which machine points read an analysis:
// a timing-only point reuses the workload's own with no analysis-cache
// lookup, and a TLB point reads one through Analyze, computed once and
// then served from the analysis cache.
func TestCompareAnalysisLookups(t *testing.T) {
	s := smallSuite()
	w, err := s.Workload("mcf")
	if err != nil {
		t.Fatal(err)
	}
	_, analyses := s.Caches()
	lookups := func() int64 { h, m, _ := analyses.Stats(); return h + m }
	before, computes := lookups(), s.workloadComputes.Load()
	for i, mutate := range []func(*uarch.Config){
		func(c *uarch.Config) { c.ROBSize = 256 },
		func(c *uarch.Config) { c.WindowSize, c.Width, c.FrontEndDepth = 16, 2, 9 },
		func(c *uarch.Config) { c.Clusters, c.BypassLatency = 2, 1 },
		func(c *uarch.Config) { c.IdealDCache = true },
	} {
		c, err := s.Compare(w, mutate, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if c.Analysis != w.AnalysisArtifact {
			t.Errorf("timing-only point %d did not reuse the workload's analysis", i)
		}
	}
	if got := lookups(); got != before {
		t.Errorf("timing-only points made %d analysis-cache lookups, want 0", got-before)
	}

	tlb := cache.DefaultTLB()
	withTLB := func(c *uarch.Config) { c.TLB = &tlb }
	first, err := s.Compare(w, withTLB, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Compare(w, withTLB, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.workloadComputes.Load() - computes; got != 1 {
		t.Errorf("two TLB points computed %d analyses, want 1", got)
	}
	if first.Analysis != second.Analysis || first.Analysis == w.AnalysisArtifact {
		t.Error("the TLB points did not share one analysis of their own")
	}
	if first.Analysis.Summary.DTLBMisses == 0 || first.Estimate.TLBCPI == 0 {
		t.Errorf("TLB point: %d TLB misses, TLB CPI %v; want both positive",
			first.Analysis.Summary.DTLBMisses, first.Estimate.TLBCPI)
	}
}

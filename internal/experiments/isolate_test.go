package experiments

import (
	"reflect"
	"testing"

	"fomodel/internal/core"
	"fomodel/internal/uarch"
)

// TestIsolateMatchesHandSetToggles is Isolate's reference: on one
// workload at a non-baseline point, each run equals a direct
// uarch.Simulate with the ideal toggles set by hand, and carries the
// model's estimate at that point.
func TestIsolateMatchesHandSetToggles(t *testing.T) {
	s := smallSuite()
	w, err := s.Workload("gzip")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{BranchMode: core.BranchIsolated}
	iso, err := s.Isolate(w, func(c *uarch.Config) { c.FrontEndDepth = 9 }, opts,
		EventBranch, EventICache, EventDCache)
	if err != nil {
		t.Fatal(err)
	}
	base := s.Sim
	base.FrontEndDepth = 9
	_, wantEst, err := w.Estimate(ModelMachine(base), opts)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name                      string
		run                       *Comparison
		predictor, icache, dcache bool
	}{
		{"ideal", iso.Ideal, true, true, true},
		{"branch", iso.Only[EventBranch], false, true, true},
		{"icache", iso.Only[EventICache], true, false, true},
		{"dcache", iso.Only[EventDCache], true, true, false},
	}
	for _, tc := range cases {
		cfg := base
		cfg.IdealPredictor, cfg.IdealICache, cfg.IdealDCache = tc.predictor, tc.icache, tc.dcache
		want, err := uarch.Simulate(w.Trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tc.run.Sim, want) {
			t.Errorf("%s run: Isolate %+v, hand-set toggles %+v", tc.name, *tc.run.Sim, *want)
		}
		if tc.run.Estimate != wantEst {
			t.Errorf("%s run: estimate %+v, want %+v", tc.name, tc.run.Estimate, wantEst)
		}
	}
	for e := EventBranch; e < numEvents; e++ {
		want := float64(iso.Only[e].Sim.Cycles-iso.Ideal.Sim.Cycles) / float64(iso.Count(e))
		if got := iso.PerEvent(e); iso.Count(e) == 0 || got != want {
			t.Errorf("event %d: PerEvent %v over %d events, want %v", e, got, iso.Count(e), want)
		}
	}
}

// TestMissEventCounters pins the simulator counter that counts each
// event: mispredictions, I-cache misses short and long, and long
// D-cache misses only.
func TestMissEventCounters(t *testing.T) {
	r := &uarch.Result{Mispredicts: 1, ICacheShort: 2, ICacheLong: 4, DCacheShort: 8, DCacheLong: 16, TLBMisses: 32}
	iso := &Isolation{}
	for e, want := range map[MissEvent]uint64{EventBranch: 1, EventICache: 6, EventDCache: 16} {
		iso.Only[e] = &Comparison{Sim: r}
		if got := iso.Count(e); got != want {
			t.Errorf("event %d: Count = %d, want %d", e, got, want)
		}
	}
}

// TestIsolateRunsOnlyRequestedEvents pins that an event not asked for
// gets no run.
func TestIsolateRunsOnlyRequestedEvents(t *testing.T) {
	s := smallSuite()
	w, err := s.Workload("mcf")
	if err != nil {
		t.Fatal(err)
	}
	_, before := s.Counters()
	iso, err := s.Isolate(w, nil, core.Options{}, EventDCache)
	if err != nil {
		t.Fatal(err)
	}
	if _, after := s.Counters(); after-before != 2 {
		t.Errorf("simulator runs = %d, want 2 (ideal, D-cache)", after-before)
	}
	if iso.Only[EventBranch] != nil || iso.Only[EventICache] != nil || iso.Only[EventDCache] == nil {
		t.Errorf("runs = %v, want only the D-cache run", iso.Only)
	}
}

// TestPerEventNoEvents pins that a run with no events of a kind has a
// per-event penalty of 0, not a division by zero, however many cycles
// it took.
func TestPerEventNoEvents(t *testing.T) {
	s := smallSuite()
	w, err := s.Workload("gzip")
	if err != nil {
		t.Fatal(err)
	}
	iso, err := s.Isolate(w, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	slower := &uarch.Result{Cycles: iso.Ideal.Sim.Cycles + 100}
	for e := EventBranch; e < numEvents; e++ {
		if got := iso.PerEventIn(e, iso.Ideal.Sim); got != 0 {
			t.Errorf("event %d: all-ideal run's PerEventIn = %v, want 0", e, got)
		}
		if got := iso.PerEventIn(e, slower); got != 0 {
			t.Errorf("event %d: PerEventIn of a slower run with no events = %v, want 0", e, got)
		}
	}
	none := &Isolation{Ideal: iso.Ideal}
	none.Only[EventICache] = &Comparison{Sim: slower}
	if got := none.PerEvent(EventICache); got != 0 {
		t.Errorf("PerEvent of a run with no I-cache misses = %v, want 0", got)
	}
}

// TestPenaltyFiguresSimulatorRuns pins the detailed-simulator runs per
// workload of each figure built on Isolate: Fig. 2 runs the four
// isolation runs plus the combined run, Fig. 9 and 11 an ideal and an
// event run at each of two depths, and Fig. 14 the ideal, the D-cache
// and the serialized run.
func TestPenaltyFiguresSimulatorRuns(t *testing.T) {
	s := NewSuite(20000, 1)
	s.Names = []string{"gzip"}
	figs := []struct {
		name string
		run  func(*Suite) error
		want int64
	}{
		{"fig2", func(s *Suite) error { _, err := Figure2(s); return err }, 5},
		{"fig9", func(s *Suite) error { _, err := Figure9(s); return err }, 4},
		{"fig11", func(s *Suite) error { _, err := Figure11(s); return err }, 4},
		{"fig14", func(s *Suite) error { _, err := Figure14(s); return err }, 3},
	}
	for _, f := range figs {
		_, before := s.Counters()
		if err := f.run(s); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if _, after := s.Counters(); after-before != f.want {
			t.Errorf("%s: %d simulator runs per workload, want %d", f.name, after-before, f.want)
		}
	}
}

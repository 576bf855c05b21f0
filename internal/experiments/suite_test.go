package experiments

import (
	"errors"
	"testing"

	"fomodel/internal/artifact"
	"fomodel/internal/workload"
)

// cacheSrc is a small non-default trace the trace-cache tests analyze.
var cacheSrc = Source{Name: "gzip", N: 8000, Seed: 7}

// TestFirstAnalysisKeepsNoTrace pins that the first model-only analysis
// of a content computes from a transient trace: the trace cache is left
// empty, evicts nothing, and the store receives only the analysis.
func TestFirstAnalysisKeepsNoTrace(t *testing.T) {
	s := NewSuite(cacheSrc.N, 1)
	st, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetStore(st)
	if _, err := s.Analyze(cacheSrc, s.Sim.Analysis()); err != nil {
		t.Fatal(err)
	}
	traces, _ := s.Caches()
	if _, misses, evictions := traces.Stats(); traces.Len() != 0 || misses != 1 || evictions != 0 {
		t.Errorf("trace cache after one analysis: %d entries, %d misses, %d evictions; want 0, 1, 0",
			traces.Len(), misses, evictions)
	}
	if _, ok := st.Get("trace", cacheSrc.ContentID()); ok {
		t.Error("the transient trace was stored")
	}
	if _, _, _, writes, _ := st.Stats(); writes != 1 {
		t.Errorf("store writes = %d, want 1 (the analysis)", writes)
	}
}

// TestSecondAnalysisCachesTrace pins the second-sight rule: when a
// second analysis of one content misses (another ROB size here), its
// trace is read again, so it is cached and, with a store set, persisted;
// a third analysis then reads the cached trace.
func TestSecondAnalysisCachesTrace(t *testing.T) {
	for _, withStore := range []bool{false, true} {
		s := NewSuite(cacheSrc.N, 1)
		var st *artifact.Store
		if withStore {
			var err error
			if st, err = artifact.Open(t.TempDir(), 0); err != nil {
				t.Fatal(err)
			}
			s.SetStore(st)
		}
		traces, _ := s.Caches()
		scfg := s.Sim.Analysis()
		for i, step := range []struct {
			rob          int
			entries      int
			hits, misses int64
		}{
			{128, 0, 0, 1}, // transient
			{96, 1, 0, 2},  // second sight: loaded and cached
			{64, 1, 1, 2},  // read from the cache
		} {
			scfg.ROBSize = step.rob
			if _, err := s.Analyze(cacheSrc, scfg); err != nil {
				t.Fatal(err)
			}
			if hits, misses, _ := traces.Stats(); traces.Len() != step.entries || hits != step.hits || misses != step.misses {
				t.Errorf("store %v, analysis %d: trace cache %d entries, %d hits, %d misses; want %d, %d, %d",
					withStore, i+1, traces.Len(), hits, misses, step.entries, step.hits, step.misses)
			}
		}
		if withStore {
			if _, ok := st.Get("trace", cacheSrc.ContentID()); !ok {
				t.Error("the trace a second analysis cached was not stored")
			}
		}
	}
}

// TestTraceThenAnalyzeOneMiss pins that a caller reading the trace
// before the analysis, as a simulating predict does, loads the trace
// once: the analysis finds it in the cache.
func TestTraceThenAnalyzeOneMiss(t *testing.T) {
	s := NewSuite(cacheSrc.N, 1)
	if _, err := s.Trace(cacheSrc); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Analyze(cacheSrc, s.Sim.Analysis()); err != nil {
		t.Fatal(err)
	}
	traces, _ := s.Caches()
	if hits, misses, _ := traces.Stats(); hits != 1 || misses != 1 || traces.Len() != 1 {
		t.Errorf("trace cache: %d hits, %d misses, %d entries; want 1, 1, 1", hits, misses, traces.Len())
	}
}

// TestTransientTraceChecksRegistration pins that the transient trace of
// a first analysis goes through the same registration check as Trace: a
// name re-registered after the caller resolved it fails with
// ErrWorkloadChanged instead of analyzing other content.
func TestTransientTraceChecksRegistration(t *testing.T) {
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	prof.Name = "wl"
	s := NewSuite(cacheSrc.N, 1)
	s.Lookup = func(string) (workload.Profile, string, bool) { return prof, "other", true }
	src := Source{Name: "wl", N: cacheSrc.N, Seed: cacheSrc.Seed, Content: "h"}
	if _, err := s.Analyze(src, s.Sim.Analysis()); !errors.Is(err, ErrWorkloadChanged) {
		t.Fatalf("Analyze of a re-registered name = %v, want ErrWorkloadChanged", err)
	}
	if traces, _ := s.Caches(); traces.Len() != 0 {
		t.Errorf("trace cache holds %d entries after a failed load", traces.Len())
	}
}

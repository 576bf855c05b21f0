package experiments

import (
	"bytes"
	"errors"
	"testing"

	"fomodel/internal/artifact"
	"fomodel/internal/iw"
	"fomodel/internal/stats"
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

// freshAnalysis is src's analysis under scfg computed from scratch,
// marshaled: the bytes every cached or regrouped bundle must match.
func freshAnalysis(t *testing.T, src Source, scfg stats.Config) []byte {
	t.Helper()
	tr, err := LoadOrGenerateTrace(nil, src.Name, src.N, src.Seed, false)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeAndStore(nil, tr, iw.DefaultWindows(), scfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestROBVariantsRegroup pins that a ROB variant reads no trace: after
// the first analysis of a content (at the suite's ROB, 128), the
// analyses at ROB 96 and 64 regroup it, so the trace cache sees that one
// miss and stays empty, no trace is stored, and each per-ROB bundle is
// stored under its own key and equals a fresh analysis at that ROB. The
// analysis cache's counters and Counters see one lookup per request.
func TestROBVariantsRegroup(t *testing.T) {
	s := NewSuite(cacheSrc.N, 1)
	st, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetStore(st)
	traces, analyses := s.Caches()
	scfg := s.Sim.Analysis()
	for i, rob := range []int{128, 96, 64} {
		scfg.ROBSize = rob
		a, err := s.Analyze(cacheSrc, scfg)
		if err != nil {
			t.Fatal(err)
		}
		if hits, misses, _ := traces.Stats(); traces.Len() != 0 || hits != 0 || misses != 1 {
			t.Errorf("rob %d: trace cache %d entries, %d hits, %d misses; want 0, 0, 1", rob, traces.Len(), hits, misses)
		}
		// The regroup's lookup of the ROB-128 bundle is not counted.
		hits, misses, _ := analyses.Stats()
		if workloads, _ := s.Counters(); hits != 0 || misses != int64(i+1) || workloads != misses {
			t.Errorf("rob %d: analysis cache %d hits, %d misses, %d workload analyses; want 0, %d, %d", rob, hits, misses, workloads, i+1, i+1)
		}
		stored, ok := st.Get("analysis", AnalysisKey(cacheSrc.ContentID(), iw.DefaultWindows(), scfg))
		if !ok {
			t.Errorf("rob %d: the analysis was not stored under its key", rob)
		}
		got, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if want := freshAnalysis(t, cacheSrc, scfg); !bytes.Equal(got, want) || !bytes.Equal(stored, want) {
			t.Errorf("rob %d: the cached or stored bundle differs from a fresh analysis", rob)
		}
	}
	if _, ok := st.Get("trace", cacheSrc.ContentID()); ok {
		t.Error("a trace was stored")
	}

	// A variant first computes the ROB-128 bundle, and a later request
	// for it hits.
	s = NewSuite(cacheSrc.N, 1)
	_, analyses = s.Caches()
	for _, rob := range []int{96, 128} {
		scfg.ROBSize = rob
		if _, err := s.Analyze(cacheSrc, scfg); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, _ := analyses.Stats()
	if workloads, _ := s.Counters(); hits != 1 || misses != 1 || workloads != 1 {
		t.Errorf("ROB 96 then 128: analysis cache %d hits, %d misses, %d workload analyses; want 1, 1, 1", hits, misses, workloads)
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

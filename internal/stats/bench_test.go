package stats_test

import (
	"sync"
	"testing"

	"fomodel/internal/stats"
	"fomodel/internal/trace"
	"fomodel/internal/workload"
)

var (
	benchTraceOnce sync.Once
	benchTraceVal  *trace.Trace
)

func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	benchTraceOnce.Do(func() {
		t, err := workload.Generate("gzip", 50000, 1)
		if err != nil {
			panic(err)
		}
		benchTraceVal = t
	})
	return benchTraceVal
}

// BenchmarkAnalyze times the functional trace analysis that feeds the
// analytical model (caches, predictor, dependence and miss statistics).
func BenchmarkAnalyze(b *testing.B) {
	t := benchTrace(b)
	cfg := stats.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.Analyze(t, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWithROB times regrouping an analysis for another ROB size,
// the step a ROB sweep cell pays instead of a fresh Analyze.
func BenchmarkWithROB(b *testing.B) {
	sum, err := stats.Analyze(benchTrace(b), stats.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum.WithROB(256)
	}
}

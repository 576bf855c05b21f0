package server

import (
	"fmt"
	"net/http"
	"runtime"
	"testing"

	"fomodel/internal/artifact"
	"fomodel/internal/workload"
)

// benchPost drives one request through the handler chain and fails the
// benchmark on a non-200.
func benchPost(b *testing.B, s *Server, path, body string) {
	b.Helper()
	rec := post(s, path, body)
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status = %d\nbody: %s", path, rec.Code, rec.Body.String())
	}
}

// BenchmarkPredictHot measures the cache-hot predict path: every request
// after the first is served from the response cache, so this is the
// daemon's steady-state throughput ceiling for repeated queries.
func BenchmarkPredictHot(b *testing.B) {
	s := testServer(Config{N: 20000})
	const body = `{"bench":"gzip","sim":true}`
	benchPost(b, s, "/v1/predict", body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, s, "/v1/predict", body)
	}
}

// BenchmarkPredictCold measures the cache-cold predict path: each request
// uses a fresh seed, so every iteration generates a trace and runs the
// full analysis pipeline (IW characteristic, fit, miss statistics, model).
func BenchmarkPredictCold(b *testing.B) {
	s := testServer(Config{N: 20000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, s, "/v1/predict",
			fmt.Sprintf(`{"bench":"gzip","seed":%d}`, i+2))
	}
}

// BenchmarkPredictColdStore measures the cache-cold predict path at the
// served size: 100000-instruction traces, a fresh seed per iteration,
// and a store bounded at 256 MiB, so every iteration generates, encodes
// and stores a trace and runs the full analysis pipeline.
func BenchmarkPredictColdStore(b *testing.B) {
	st, err := artifact.Open(b.TempDir(), 256<<20)
	if err != nil {
		b.Fatal(err)
	}
	s := testServer(Config{N: 100000, Store: st})
	benches := workload.Names()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, s, "/v1/predict",
			fmt.Sprintf(`{"bench":%q,"seed":%d}`, benches[i%len(benches)], i+2))
	}
}

// BenchmarkPredictColdWarmStore measures the restart path the artifact
// store exists for: every iteration boots a fresh server — empty
// response, trace, analysis, and prep caches, as after a process
// restart — on a shared warm store, and serves the same request
// BenchmarkPredictCold pays the full pipeline for. The gap between this
// and BenchmarkPredictCold is what persistence buys.
func BenchmarkPredictColdWarmStore(b *testing.B) {
	st, err := artifact.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	const body = `{"bench":"gzip","seed":2}`
	warm := testServer(Config{N: 20000, Store: st})
	benchPost(b, warm, "/v1/predict", body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := testServer(Config{N: 20000, Store: st})
		benchPost(b, s, "/v1/predict", body)
	}
}

// benchmarkSweep measures one /v1/sweep request latency at a given worker
// count; per-iteration titles bust the response cache so every iteration
// runs the full 12-cell grid (workload analyses are shared, the detailed
// simulations are not).
func benchmarkSweep(b *testing.B, workers int) {
	s := testServer(Config{N: 20000, Workers: workers})
	// Warm the workload cache so iterations measure sweep execution, not
	// first-touch trace analysis.
	benchPost(b, s, "/v1/sweep",
		`{"title":"warm","param":"width","benches":["gzip","mcf","vortex"],"values":[2,4,6,8]}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, s, "/v1/sweep", fmt.Sprintf(
			`{"title":"run %d","param":"width","benches":["gzip","mcf","vortex"],"values":[2,4,6,8]}`, i))
	}
}

func BenchmarkSweepWorkers1(b *testing.B) { benchmarkSweep(b, 1) }

func BenchmarkSweepWorkersN(b *testing.B) { benchmarkSweep(b, runtime.GOMAXPROCS(0)) }

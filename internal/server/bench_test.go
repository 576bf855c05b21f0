package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"fomodel/internal/artifact"
	"fomodel/internal/workload"
)

// benchPost drives one request through h, a server's handler chain
// built once per benchmark (building it per request would time the
// mux construction too), and fails the benchmark on a non-200.
func benchPost(b *testing.B, h http.Handler, path, body string) {
	b.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status = %d\nbody: %s", path, rec.Code, rec.Body.String())
	}
}

// BenchmarkPredictHot measures the cache-hot predict path: every request
// after the first is served from the response cache, so this is the
// daemon's steady-state throughput ceiling for repeated queries.
func BenchmarkPredictHot(b *testing.B) {
	h := testServer(Config{N: 20000}).Handler()
	const body = `{"bench":"gzip","sim":true}`
	benchPost(b, h, "/v1/predict", body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, h, "/v1/predict", body)
	}
}

// BenchmarkPredictCold measures the cache-cold predict path: each request
// uses a fresh seed, so every iteration generates a trace and runs the
// full analysis pipeline (IW characteristic, fit, miss statistics, model).
func BenchmarkPredictCold(b *testing.B) {
	h := testServer(Config{N: 20000}).Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, h, "/v1/predict",
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
	h := testServer(Config{N: 100000, Store: st}).Handler()
	benches := workload.Names()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, h, "/v1/predict",
			fmt.Sprintf(`{"bench":%q,"seed":%d}`, benches[i%len(benches)], i+2))
	}
}

// BenchmarkPredictColdWarmStore measures the restart path the artifact
// store exists for: every iteration boots a fresh server — empty
// response, trace, analysis, and prep caches, as after a process
// restart — on a shared warm store, builds its handler once, and serves
// the same request BenchmarkPredictCold pays the full pipeline for.
// Building the server is part of the restart cost. The gap between this
// and BenchmarkPredictCold is what persistence buys.
func BenchmarkPredictColdWarmStore(b *testing.B) {
	st, err := artifact.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	const body = `{"bench":"gzip","seed":2}`
	benchPost(b, testServer(Config{N: 20000, Store: st}).Handler(), "/v1/predict", body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, testServer(Config{N: 20000, Store: st}).Handler(), "/v1/predict", body)
	}
}

// benchmarkSweep measures one /v1/sweep request latency at a given worker
// count; per-iteration titles bust the response cache so every iteration
// runs the full 12-cell grid (workload analyses are shared, the detailed
// simulations are not).
func benchmarkSweep(b *testing.B, workers int) {
	h := testServer(Config{N: 20000, Workers: workers}).Handler()
	// Warm the workload cache so iterations measure sweep execution, not
	// first-touch trace analysis.
	benchPost(b, h, "/v1/sweep",
		`{"title":"warm","param":"width","benches":["gzip","mcf","vortex"],"values":[2,4,6,8]}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, h, "/v1/sweep", fmt.Sprintf(
			`{"title":"run %d","param":"width","benches":["gzip","mcf","vortex"],"values":[2,4,6,8]}`, i))
	}
}

func BenchmarkSweepWorkers1(b *testing.B) { benchmarkSweep(b, 1) }

func BenchmarkSweepWorkersN(b *testing.B) { benchmarkSweep(b, runtime.GOMAXPROCS(0)) }

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"fomodel/internal/artifact"
	"fomodel/internal/rng"
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
// daemon's steady-state throughput ceiling for repeated queries. The
// registered row predicts a registered clone of gzip, whose name
// resolves through the registry on every request.
func BenchmarkPredictHot(b *testing.B) {
	prof, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	prof.Name = "gzip-clone"
	clone, err := json.Marshal(prof)
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range []string{"gzip", "gzip-clone"} {
		name := "builtin"
		if bench != "gzip" {
			name = "registered"
		}
		b.Run(name, func(b *testing.B) {
			h := testServer(Config{N: 20000}).Handler()
			benchPost(b, h, "/v1/workloads/gzip-clone", string(clone))
			body := fmt.Sprintf(`{"bench":%q,"sim":true}`, bench)
			benchPost(b, h, "/v1/predict", body)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPost(b, h, "/v1/predict", body)
			}
		})
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
// and a store bounded at 256 MiB, so every iteration generates a trace,
// runs the full analysis pipeline, and encodes and stores the analysis
// (a model-only predict stores no trace; see
// TestColdModelPredictWritesOnlyAnalysis).
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

// BenchmarkPredictColdROBs measures model-only predicts of one fresh
// content at several ROB sizes, the traffic of a ROB sweep over a trace
// the warm-up does not cover: each iteration predicts a fresh gzip seed
// at ROB 96 to 208 in steps of 16, with 100000-instruction traces. Each
// ROB size is its own analysis key: the daemon's ROB (128) is analyzed
// from a transient trace, and every other ROB regroups that analysis.
func BenchmarkPredictColdROBs(b *testing.B) {
	h := testServer(Config{N: 100000}).Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for rob := 96; rob <= 208; rob += 16 {
			benchPost(b, h, "/v1/predict",
				fmt.Sprintf(`{"bench":"gzip","seed":%d,"machine":{"rob":%d}}`, i+2, rob))
		}
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

// servedSweepValues are the values a served sweep draws per parameter,
// the ranges fobench's sweep-sim workload draws from.
var servedSweepValues = []struct {
	param        string
	lo, hi, step int
}{
	{"depth", 2, 20, 1},
	{"rob", 48, 256, 16},
	{"width", 1, 8, 1},
	{"window", 8, 128, 8},
}

// pickSorted returns k distinct values of lo, lo+step, …, hi in
// ascending order.
func pickSorted(r *rng.PCG, lo, hi, step, k int) []int {
	n := (hi-lo)/step + 1
	picked := make([]bool, n)
	for left := k; left > 0; {
		if j := r.Intn(n); !picked[j] {
			picked[j] = true
			left--
		}
	}
	var out []int
	for j, ok := range picked {
		if ok {
			out = append(out, lo+j*step)
		}
	}
	return out
}

// BenchmarkSweepServed measures one /v1/sweep request at the size the
// daemon serves: 100000-instruction traces and, per iteration, a fresh
// grid of 3 built-ins × 4 values of one parameter, cycling depth, rob,
// width and window the way fobench's sweep-sim traffic draws them. Every
// built-in's analysis is warmed first, so iterations time the 12
// detailed simulations and the model evaluations of the grid.
func BenchmarkSweepServed(b *testing.B) {
	h := testServer(Config{N: 100000}).Handler()
	names := workload.Names()
	for k := 0; k < len(names); k += 3 {
		benchPost(b, h, "/v1/sweep", fmt.Sprintf(
			`{"title":"warm %d","param":"width","benches":[%q,%q,%q],"values":[4]}`,
			k, names[k], names[(k+1)%len(names)], names[(k+2)%len(names)]))
	}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv := servedSweepValues[i%len(servedSweepValues)]
		var benches []string
		for _, j := range pickSorted(r, 0, len(names)-1, 1, 3) {
			benches = append(benches, names[j])
		}
		body, err := json.Marshal(map[string]any{
			"title": fmt.Sprintf("served %d", i), "param": sv.param,
			"benches": benches, "values": pickSorted(r, sv.lo, sv.hi, sv.step, 4),
		})
		if err != nil {
			b.Fatal(err)
		}
		benchPost(b, h, "/v1/sweep", string(body))
	}
}

// BenchmarkOptimize measures one buffered /v1/optimize search over warm
// analyses and reports the cost of one evaluation (one candidate on one
// mix workload) as us/eval. The search walks width × window × rob for a
// two-workload mix; every built-in's analysis is warmed and one search
// runs before the timer starts, so iterations time the evaluations, not
// first-touch analysis. Each iteration carries a fresh title, so the
// search's own response misses the response cache.
func BenchmarkOptimize(b *testing.B) {
	s := testServer(Config{N: 20000})
	if err := s.Warm(context.Background()); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	const spec = `{"title":%q,"workloads":[{"bench":"gzip"},{"bench":"mcf"}],` +
		`"bounds":{"width":{"min":1,"max":8},"window":{"min":16,"max":96,"step":16},"rob":{"min":64,"max":256,"step":64}},"budget":200}`
	benchPost(b, h, "/v1/optimize", fmt.Sprintf(spec, "warm"))
	evals := s.optEvals.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, h, "/v1/optimize", fmt.Sprintf(spec, fmt.Sprintf("run %d", i)))
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(int64(b.N)*evals), "us/eval")
}

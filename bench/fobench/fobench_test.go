package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// TestTailCut pins the reporting rule: the highest cut with at least ten
// samples beyond it.
func TestTailCut(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.9}, {100, 0.9}, {99, 0.5}, {20, 0.5}, {19, 0}, {0, 0},
	} {
		if got := tailCut(c.n); got != c.want {
			t.Errorf("tailCut(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestQuartilesMatchPython checks quartiles against values Python's
// statistics.quantiles(data, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4}, 1, 5},
		{[]float64{3, 1, 2, 10, 7.5}, 1.5, 8.75},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTrafficIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := w.traffic(7), w.traffic(7)
		for i := 0; i < 200; i++ {
			if ra, rb := a.at(i), b.at(i); ra.Path != rb.Path || !bytes.Equal(ra.Body, rb.Body) {
				t.Fatalf("%s request %d differs under one seed: %s vs %s", w.name, i, ra.Body, rb.Body)
			}
		}
	}
}

func TestSeedsChangeColdSeedsAndSweepGrids(t *testing.T) {
	for _, gen := range []func(uint64) traffic{coldTraffic, sweepTraffic} {
		a, b := gen(1), gen(2)
		same := 0
		for i := 0; i < 100; i++ {
			if bytes.Equal(a.at(i).Body, b.at(i).Body) {
				same++
			}
		}
		if same > 5 {
			t.Errorf("seeds 1 and 2 generate %d identical requests of 100: %s", same, a.at(0).Body)
		}
	}
	if a, b := cyclic(hotKeys(), 1), cyclic(hotKeys(), 2); slices.Equal(a.order, b.order) {
		t.Error("seeds 1 and 2 visit the hot keys in the same order")
	}
}

func TestColdSeedsNeverRepeat(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 100000; i++ {
		s := coldSeed(3, i)
		if s < 2 || s >= 1<<53+2 || seen[s] {
			t.Fatalf("coldSeed(3, %d) = %d: out of range or repeated", i, s)
		}
		seen[s] = true
	}
}

func TestSweepGridsAreValid(t *testing.T) {
	tr := sweepTraffic(5)
	for i := 0; i < 500; i++ {
		var sb sweepBody
		if err := json.Unmarshal(tr.at(i).Body, &sb); err != nil {
			t.Fatal(err)
		}
		if len(sb.Benches) != 3 || len(sb.Values) != 4 {
			t.Fatalf("grid %s is not 3 benches × 4 values", tr.at(i).Body)
		}
		if sb.Param == "rob" && sb.Values[0] < 48 {
			t.Fatalf("ROB %d below the baseline window", sb.Values[0])
		}
	}
}

// TestParseMetricsCountsMalformedLines feeds the parser the daemon's
// known-bad counter line, a label value holding braces, and a +Inf bucket.
func TestParseMetricsCountsMalformedLines(t *testing.T) {
	text := `# HELP fomodeld_requests_total Requests served.
# TYPE fomodeld_requests_total counter
fomodeld_requests_total{path="/v1/predict",code="200"} 41
fomodeld_requests_total{path="/v1/workloads/{name}",code="200"} 1
fomodeld_prep_cache_evictions_total &{{{} {} 0}}
fomodeld_request_duration_seconds_bucket{le="+Inf"} 42
fomodeld_request_duration_seconds_sum 0.125000
broken{path="unterminated 3

fomodeld_requests_shed_total 0
`
	s := parseMetrics(text)
	if s.errors != 2 {
		t.Errorf("errors = %d, want 2 (the &{...} counter and the unterminated label)", s.errors)
	}
	if got := s.sum("fomodeld_requests_total"); got != 42 {
		t.Errorf("sum(fomodeld_requests_total) = %v, want 42", got)
	}
	if got := s.series[`fomodeld_request_duration_seconds_bucket{le="+Inf"}`]; got != 42 {
		t.Errorf("+Inf bucket = %v, want 42", got)
	}
	if got := s.sum("fomodeld_request_duration_seconds_sum"); got != 0.125 {
		t.Errorf("duration sum = %v, want 0.125", got)
	}
	if _, ok := s.series["fomodeld_requests_shed_total"]; !ok {
		t.Error("a zero-valued counter after a malformed line was dropped")
	}
}

// TestSelfTimes pins the self-time arithmetic: a parent's self time is its
// duration minus the union of its direct children's intervals, clipped to
// the parent; grandchildren count only against their own parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the root
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	want := map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 7}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	stats := selfStats(spans)
	if len(stats) != 6 || stats[0].name != "a" || stats[0].count != 1 || stats[0].p50 != 20 {
		t.Errorf("selfStats = %+v", stats)
	}
}

func TestGoldenFileMatchesVerificationSet(t *testing.T) {
	if _, err := readGolden(filepath.Join("..", "testdata", "golden.json"), 100000); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSONMatchesDriver keeps BENCHMARK.json's workloads and
// metrics equal to the ones the driver runs and reports.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json workload %d = %+v, driver %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		what string
		got  []metric
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics, driver %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if d := c.want[i]; m != (metric{d.name, d.unit, d.better, d.bound}) {
				t.Errorf("%s[%d] = %+v, driver %+v", c.what, i, m, d)
			}
		}
	}
}

// TestSmoke runs every workload for one second at a short trace length,
// traced, so the load, verification, replay and probes all execute
// against real processes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches real servers")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	var out, log bytes.Buffer
	args := []string{"-workload", "all", "-seconds", "1", "-n", "20000", "-golden", "off", "-trace", "1", "-workdir", t.TempDir()}
	if err := run(ctx, args, &out, &log); err != nil {
		t.Fatalf("run: %v\n%s\n%s", err, out.String(), log.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var final summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !final.Correct || final.Failed != 0 || final.Attempted == 0 {
		t.Fatalf("result %+v\n%s", final, out.String())
	}
	for _, w := range workloads {
		for _, d := range perLayer {
			if _, ok := final.Metrics[w.name+"."+d.name]; !ok {
				t.Errorf("no %s.%s in the result", w.name, d.name)
			}
		}
	}
}

package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fomodel/internal/server"
	"fomodel/internal/workload"
)

func TestTraceinfo(t *testing.T) {
	var out bytes.Buffer
	if err := Traceinfo([]string{"-n", "20000", "gzip"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "gzip") {
		t.Fatalf("traceinfo output incomplete:\n%s", s)
	}
	if strings.Count(s, "\n") != 2 { // header + one workload
		t.Fatalf("unexpected row count:\n%s", s)
	}
}

func TestTraceinfoUnknownWorkload(t *testing.T) {
	var out bytes.Buffer
	if err := Traceinfo([]string{"nonsense"}, &out); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestTraceinfoBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := Traceinfo([]string{"-bogus"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestFosim(t *testing.T) {
	var out bytes.Buffer
	if err := Fosim([]string{"-n", "20000", "bzip"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "CPI") || !strings.Contains(s, "bzip") {
		t.Fatalf("fosim output incomplete:\n%s", s)
	}
}

func TestFosimIdealTogglesSpeedUp(t *testing.T) {
	run := func(extra ...string) string {
		var out bytes.Buffer
		args := append([]string{"-n", "20000"}, extra...)
		args = append(args, "gzip")
		if err := Fosim(args, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	real := run()
	ideal := run("-ideal-icache", "-ideal-dcache", "-ideal-predictor")
	// The ideal run must report zero miss events (columns misp, iShort,
	// iLong, dShort, dLong of the data row).
	lines := strings.Split(strings.TrimSpace(ideal), "\n")
	fields := strings.Fields(lines[len(lines)-1])
	for _, col := range fields[5:10] {
		if col != "0" {
			t.Fatalf("ideal run still reports events:\n%s", ideal)
		}
	}
	if real == ideal {
		t.Fatal("ideal toggles had no effect")
	}
}

func TestFosimDumpAndLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.bin")
	var out bytes.Buffer
	if err := Fosim([]string{"-n", "5000", "-dump", path, "gzip"}, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("dump did not create the file: %v", err)
	}
	out.Reset()
	if err := Fosim([]string{"-load", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "gzip") {
		t.Fatalf("loaded-trace output incomplete:\n%s", out.String())
	}
}

func TestFosimDumpRequiresOneWorkload(t *testing.T) {
	var out bytes.Buffer
	if err := Fosim([]string{"-n", "5000", "-dump", "/tmp/x", "gzip", "bzip"}, &out); err == nil {
		t.Fatal("dump with two workloads accepted")
	}
}

func TestFosimProfile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "profile.json")
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	p.Name = "custom"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteProfile(f, p); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out bytes.Buffer
	if err := Fosim([]string{"-n", "10000", "-profile", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "custom") {
		t.Fatalf("profile workload missing:\n%s", out.String())
	}
}

func TestFomodel(t *testing.T) {
	var out bytes.Buffer
	if err := Fomodel(context.Background(), []string{"-n", "20000", "gzip"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "modelCPI") {
		t.Fatalf("fomodel output incomplete:\n%s", out.String())
	}
}

func TestFomodelDumpProfile(t *testing.T) {
	var out bytes.Buffer
	if err := Fomodel(context.Background(), []string{"-dump-profile", "gzip"}, &out); err != nil {
		t.Fatal(err)
	}
	var got workload.Profile
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("dump is not a profile: %v\n%s", err, out.String())
	}
	want, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("dumped profile does not round-trip:\n got %+v\nwant %+v", got, want)
	}
	if err := Fomodel(context.Background(), []string{"-dump-profile", "nope"}, &out); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFomodelSim(t *testing.T) {
	var out bytes.Buffer
	if err := Fomodel(context.Background(), []string{"-n", "20000", "-sim", "gzip"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "err%") {
		t.Fatalf("fomodel -sim output incomplete:\n%s", out.String())
	}
}

func TestFomodelBranchModes(t *testing.T) {
	for _, mode := range []string{"midpoint", "isolated", "measured"} {
		var out bytes.Buffer
		if err := Fomodel(context.Background(), []string{"-n", "10000", "-branch-mode", mode, "gzip"}, &out); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
	}
	var out bytes.Buffer
	if err := Fomodel(context.Background(), []string{"-branch-mode", "nonsense", "gzip"}, &out); err == nil {
		t.Fatal("bad branch mode accepted")
	}
}

func TestExperimentsList(t *testing.T) {
	var out bytes.Buffer
	if err := Experiments(context.Background(), []string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig2", "fig15", "table1", "ext-tlb", "statsim", "refine-branch"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("label %q missing from list:\n%s", want, out.String())
		}
	}
}

func TestExperimentsRun(t *testing.T) {
	var out bytes.Buffer
	if err := Experiments(context.Background(), []string{"-n", "20000", "-quiet", "fig8"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "drain") {
		t.Fatalf("fig8 output incomplete:\n%s", out.String())
	}
}

func TestExperimentsCSVAndOut(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := Experiments(context.Background(), []string{"-n", "20000", "-csv", "-out", dir, "-quiet", "table1"}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "bench,alpha") {
		t.Fatalf("CSV file content: %q", data[:30])
	}
}

func TestExperimentsUnknownLabel(t *testing.T) {
	var out bytes.Buffer
	if err := Experiments(context.Background(), []string{"nonsense"}, &out); err == nil {
		t.Fatal("unknown label accepted")
	}
}

// TestExperimentsParallelDeterminism is the acceptance check for the
// parallel engine: -parallel 1 and -parallel 4 must produce byte-identical
// output. The "methods" experiment is excluded because its table reports
// wall-clock times, which no scheduling discipline can make reproducible.
func TestExperimentsParallelDeterminism(t *testing.T) {
	labels := []string{"fig2", "fig8", "fig15", "table1", "statsim"}
	run := func(parallel string) string {
		var out bytes.Buffer
		args := append([]string{"-n", "20000", "-quiet", "-parallel", parallel}, labels...)
		if err := Experiments(context.Background(), args, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	seq := run("1")
	par := run("4")
	if seq != par {
		t.Fatalf("-parallel 1 and -parallel 4 diverge:\n--- sequential ---\n%s--- parallel ---\n%s", seq, par)
	}
}

func TestExperimentsTiming(t *testing.T) {
	var out bytes.Buffer
	if err := Experiments(context.Background(), []string{"-n", "20000", "-quiet", "-timing", "fig8", "table1"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Timing breakdown", "workload", "experiment", "counters:", "workload analyses", "simulator runs"} {
		if !strings.Contains(s, want) {
			t.Fatalf("timing output missing %q:\n%s", want, s)
		}
	}
}

func TestFosimExtensionFlags(t *testing.T) {
	var base, ext bytes.Buffer
	if err := Fosim([]string{"-n", "15000", "gzip"}, &base); err != nil {
		t.Fatal(err)
	}
	if err := Fosim([]string{"-n", "15000", "-clusters", "2", "-bypass", "1",
		"-tlb", "-fu", "mul=1,load=1", "gzip"}, &ext); err != nil {
		t.Fatal(err)
	}
	if base.String() == ext.String() {
		t.Fatal("extension flags had no effect")
	}
}

func TestFosimBadFUFlag(t *testing.T) {
	var out bytes.Buffer
	if err := Fosim([]string{"-fu", "nonsense=1", "gzip"}, &out); err == nil {
		t.Fatal("unknown FU class accepted")
	}
	if err := Fosim([]string{"-fu", "mul", "gzip"}, &out); err == nil {
		t.Fatal("malformed FU pair accepted")
	}
	if err := Fosim([]string{"-fu", "mul=0", "gzip"}, &out); err == nil {
		t.Fatal("zero FU count accepted")
	}
}

// TestMachineFlagsRejectNegativeClusters pins that a negative -clusters
// or -bypass is an error in both tools, not the unified baseline.
func TestMachineFlagsRejectNegativeClusters(t *testing.T) {
	for _, args := range [][]string{
		{"-clusters", "-3", "gzip"},
		{"-clusters", "1", "-bypass", "-7", "gzip"},
	} {
		var out bytes.Buffer
		if err := Fosim(append([]string{"-n", "2000"}, args...), &out); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("fosim %v: error %v, want a negative-value error", args, err)
		}
		if err := Fomodel(context.Background(), append([]string{"-n", "2000"}, args...), &out); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("fomodel %v: error %v, want a negative-value error", args, err)
		}
	}
}

func TestFomodelExtensionFlags(t *testing.T) {
	var out bytes.Buffer
	if err := Fomodel(context.Background(), []string{"-n", "15000", "-clusters", "2", "-tlb",
		"-fetch-buffer", "16", "gzip"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "modelCPI") {
		t.Fatalf("output incomplete:\n%s", out.String())
	}
}

// TestFomodelRemoteMatchesLocal pins the -remote contract: routing the
// same invocation through a fomodeld daemon produces byte-identical
// output — table and -json modes both — because the daemon serves the
// exact bytes the local pipeline would print.
func TestFomodelRemoteMatchesLocal(t *testing.T) {
	srv := httptest.NewServer(server.New(server.Config{N: 20000}, nil).Handler())
	defer srv.Close()

	for _, extra := range [][]string{
		{},
		{"-json", "-sim"},
		{"-width", "8", "-branch-mode", "isolated"},
	} {
		args := append([]string{"-n", "15000"}, extra...)
		var local, remote bytes.Buffer
		if err := Fomodel(context.Background(), append(args, "gzip", "mcf"), &local); err != nil {
			t.Fatalf("%v local: %v", extra, err)
		}
		if err := Fomodel(context.Background(), append(append([]string{"-remote", srv.URL}, args...), "gzip", "mcf"), &remote); err != nil {
			t.Fatalf("%v remote: %v", extra, err)
		}
		if local.String() != remote.String() {
			t.Errorf("%v: remote output differs from local\nlocal:\n%s\nremote:\n%s",
				extra, local.String(), remote.String())
		}
	}
}

func TestFomodelRemoteErrors(t *testing.T) {
	srv := httptest.NewServer(server.New(server.Config{N: 20000}, nil).Handler())
	defer srv.Close()

	var out bytes.Buffer
	// -profile workloads only exist locally; the combination is rejected.
	if err := Fomodel(context.Background(), []string{"-remote", srv.URL, "-profile", "x.json"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-profile") {
		t.Errorf("remote+profile: err = %v, want a -profile rejection", err)
	}
	// A per-item failure surfaces as the command's error, named by bench.
	if err := Fomodel(context.Background(), []string{"-remote", srv.URL, "gzip", "nonsense"}, &out); err == nil ||
		!strings.Contains(err.Error(), "nonsense") {
		t.Errorf("remote unknown bench: err = %v, want it named", err)
	}
	// An unreachable daemon is an error, not a hang (retries are bounded).
	c := []string{"-remote", "http://127.0.0.1:1", "gzip"}
	if err := Fomodel(context.Background(), c, &out); err == nil {
		t.Errorf("unreachable daemon: want an error")
	}
}

func TestFomodelJSON(t *testing.T) {
	var out bytes.Buffer
	if err := Fomodel(context.Background(), []string{"-n", "15000", "-json", "-sim", "gzip"}, &out); err != nil {
		t.Fatal(err)
	}
	var record struct {
		Bench    string `json:"bench"`
		Estimate struct {
			CPI float64 `json:"CPI"`
		} `json:"estimate"`
		SimCPI *float64 `json:"sim_cpi"`
	}
	if err := json.Unmarshal(out.Bytes(), &record); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if record.Bench != "gzip" || record.Estimate.CPI <= 0 || record.SimCPI == nil || *record.SimCPI <= 0 {
		t.Fatalf("record incomplete: %+v", record)
	}
}

// TestFomodelRemoteHonorsContext pins that cancelling the context (an
// interrupt) aborts an in-flight -remote batch immediately, rather
// than leaving the request to run out its timeout.
func TestFomodelRemoteHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{}, 1)
	done := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-r.Context().Done():
		case <-done:
		}
	}))
	defer srv.Close()
	defer close(done)
	go func() {
		<-started
		cancel()
	}()
	var out bytes.Buffer
	err := Fomodel(ctx, []string{"-remote", srv.URL, "-remote-timeout", "30s", "gzip"}, &out)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from a cancelled remote batch, got %v", err)
	}
}

// writeOptimizeSpec drops a small optimize spec into a temp file. The
// explicit n pins the trace length so local (-n flag) and remote (daemon
// default) runs normalize to the same canonical spec.
func writeOptimizeSpec(t *testing.T, spec string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFomodelOptimize(t *testing.T) {
	path := writeOptimizeSpec(t,
		`{"workloads":[{"bench":"gzip"}],"bounds":{"width":{"min":1,"max":4}},"budget":6,"n":20000}`)
	var out bytes.Buffer
	if err := Fomodel(context.Background(), []string{"-optimize", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"minimize cpi over gzip", "bounds: width 1..4 step 1", "evaluations over a 4-point grid"} {
		if !strings.Contains(text, want) {
			t.Errorf("table output missing %q:\n%s", want, text)
		}
	}
}

// TestFomodelOptimizeRemoteMatchesLocal pins the -optimize byte-equality
// contract: the local in-process search and a fomodeld daemon produce
// identical bytes in both table and -json modes.
func TestFomodelOptimizeRemoteMatchesLocal(t *testing.T) {
	srv := httptest.NewServer(server.New(server.Config{N: 20000}, nil).Handler())
	defer srv.Close()
	path := writeOptimizeSpec(t,
		`{"workloads":[{"bench":"gzip"},{"bench":"mcf","weight":2}],"bounds":{"width":{"min":1,"max":8},"rob":{"min":64,"max":128,"step":64}},"budget":12,"n":20000}`)

	for _, extra := range [][]string{{}, {"-json"}} {
		args := append([]string{"-optimize", path, "-n", "20000"}, extra...)
		var local, remote bytes.Buffer
		if err := Fomodel(context.Background(), args, &local); err != nil {
			t.Fatalf("%v local: %v", extra, err)
		}
		if err := Fomodel(context.Background(), append(args, "-remote", srv.URL), &remote); err != nil {
			t.Fatalf("%v remote: %v", extra, err)
		}
		if local.String() != remote.String() {
			t.Errorf("%v: remote output differs from local\nlocal:\n%s\nremote:\n%s",
				extra, local.String(), remote.String())
		}
	}
}

func TestFomodelOptimizeErrors(t *testing.T) {
	var out bytes.Buffer
	// Missing spec file.
	if err := Fomodel(context.Background(), []string{"-optimize", "/no/such/spec.json"}, &out); err == nil {
		t.Error("missing spec file: want an error")
	}
	// Malformed spec (unknown field, matching the daemon's strictness).
	bad := writeOptimizeSpec(t, `{"workloads":[{"bench":"gzip"}],"bogus":1}`)
	if err := Fomodel(context.Background(), []string{"-optimize", bad}, &out); err == nil ||
		!strings.Contains(err.Error(), "bad optimize spec") {
		t.Errorf("malformed spec: err = %v, want a decode rejection", err)
	}
	// Invalid search space surfaces the package's sorted-param message.
	unknown := writeOptimizeSpec(t, `{"workloads":[{"bench":"gzip"}],"bounds":{"l2":{"min":1,"max":2}},"budget":4,"n":20000}`)
	if err := Fomodel(context.Background(), []string{"-optimize", unknown}, &out); err == nil ||
		!strings.Contains(err.Error(), "known: clusters, depth, fetch_buffer, rob, width, window") {
		t.Errorf("unknown param: err = %v, want the sorted parameter list", err)
	}
}

// Command fobench is the serving benchmark. It builds fomodeld and
// fomodelproxy from source, launches them as real processes on loopback,
// and drives each named workload from one closed-loop load process: two
// goroutines, each waiting for its reply before sending again, over two
// keep-alive connections. Every response is verified; after each timed
// phase a fixed verification set is replayed and its bodies checked
// against sha256 goldens. It prints every metric by name with its unit and
// ends its standard output with one JSON line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"<name>":{"value":V,"unit":"U"},...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) records a span per client request, replays a sample of the
// requests in process with a span around every layer call, and reports the
// per-layer metrics. See bench/README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload hot-direct -seed 1 -seconds 30 -trace 0
//	(cd bench && go run ./fobench -seed 1)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fobench:", err)
		os.Exit(1)
	}
}

// options are the command-line settings.
type options struct {
	root, workdir string
	workload      string
	seed          uint64
	seconds       float64
	trace         switchFlag
	traceOut      string
	n             int
	repeat        int
	golden        string
	updateGolden  bool
	jsonOut       string
}

// switchFlag is a 0/1 flag that takes its value as a separate argument
// ("-trace 1"), which a Go bool flag cannot.
type switchFlag bool

func (f *switchFlag) String() string {
	if f != nil && *f {
		return "1"
	}
	return "0"
}

func (f *switchFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	if err != nil {
		return errors.New("want 0 or 1")
	}
	*f = switchFlag(v)
	return nil
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("fobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.root, "root", "", "repository root (default: the nearest directory at or above the working directory holding cmd/fomodeld)")
	fs.StringVar(&o.workdir, "workdir", "", "directory for binaries, stores and spans (default <root>/.bench_build)")
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "load seed; generates every request body")
	fs.Float64Var(&o.seconds, "seconds", 30, "length of the timed phase in seconds")
	fs.Var(&o.trace, "trace", "1 for a traced run reporting per-layer metrics, 0 for end-to-end metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default <workdir>/spans.jsonl)")
	fs.IntVar(&o.n, "n", 100000, "instructions per model trace, passed as -n to every process")
	fs.IntVar(&o.repeat, "repeat", 1, "run everything k times, at seeds seed..seed+k-1, and print each metric's spread")
	fs.StringVar(&o.golden, "golden", "", `golden digest file (default <root>/bench/testdata/golden.json; "off" skips the digest check)`)
	fs.BoolVar(&o.updateGolden, "update-golden", false, "rewrite the golden file from this run's verification responses")
	fs.StringVar(&o.jsonOut, "json-out", "", "also write every measured value, with the environment, to this JSON file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds <= 0 || o.repeat < 1 || o.n < 1000 {
		return o, errors.New("-seconds must be positive, -repeat at least 1, -n at least 1000")
	}
	return o, nil
}

// findRoot returns the nearest directory at or above dir that holds
// cmd/fomodeld.
func findRoot(dir string) (string, error) {
	for {
		if fi, err := os.Stat(filepath.Join(dir, "cmd", "fomodeld")); err == nil && fi.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/fomodeld in the working directory or above it; pass -root")
		}
		dir = parent
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	defs, err := selectWorkloads(o.workload)
	if err != nil {
		return err
	}
	if o.root == "" {
		wd, err := os.Getwd()
		if err != nil {
			return err
		}
		if o.root, err = findRoot(wd); err != nil {
			return err
		}
	}
	if o.workdir == "" {
		o.workdir = filepath.Join(o.root, ".bench_build")
	}
	if o.golden == "" {
		o.golden = filepath.Join(o.root, "bench", "testdata", "golden.json")
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(o.workdir, "spans.jsonl")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	b := &bench{opts: o, log: stderr}
	if o.golden != "off" && !o.updateGolden {
		if b.golden, err = readGolden(o.golden, o.n); err != nil {
			return err
		}
	}
	fmt.Fprintln(stderr, "fobench: building fomodeld and fomodelproxy")
	if b.bins, err = build(ctx, o.root, filepath.Join(o.workdir, "bin")); err != nil {
		return err
	}
	if b.runDir, err = os.MkdirTemp(o.workdir, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(b.runDir)
	if o.trace {
		b.spans = newRecorder()
	}

	var results []*runResult
	for rep := 0; rep < o.repeat; rep++ {
		for _, w := range defs {
			res, err := b.runWorkload(ctx, w, o.seed+uint64(rep))
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printRun(stdout, res, bool(o.trace))
			results = append(results, res)
		}
	}
	if o.updateGolden {
		g := newGolden(o.n, results[0].verification)
		for _, r := range results[1:] {
			if msgs := g.mismatches(r.verification); len(msgs) > 0 {
				return fmt.Errorf("%s serves different verification bodies than %s: %s", r.workload, results[0].workload, msgs[0])
			}
		}
		if err := g.write(o.golden); err != nil {
			return err
		}
		fmt.Fprintln(stderr, "fobench: wrote", o.golden)
	}
	if b.spans != nil {
		if err := b.spans.write(o.traceOut); err != nil {
			return err
		}
		fmt.Fprintln(stderr, "fobench: wrote", o.traceOut)
	}
	if o.repeat > 1 {
		printSpread(stdout, results)
	}
	if o.jsonOut != "" {
		if err := writeDocument(ctx, o, results); err != nil {
			return err
		}
	}
	final := summarize(results, bool(o.trace), len(defs) > 1 || o.repeat > 1)
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return errors.New("verification failed")
	}
	return nil
}

// jsonMetric is one metric of the final JSON line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summarize builds the final JSON line: the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one. Several
// workloads or repetitions report each workload's median under
// "<workload>.<metric>".
func summarize(results []*runResult, traced, prefixed bool) summary {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	s := summary{Metrics: map[string]jsonMetric{}}
	for _, r := range results {
		s.Attempted += r.attempted
		s.Failed += r.failed
	}
	s.Correct = s.Failed == 0
	order, byWorkload := groupByWorkload(results)
	for _, w := range order {
		for _, d := range defs {
			var vs []float64
			for _, r := range byWorkload[w] {
				vs = append(vs, r.metrics[d.name])
			}
			name := d.name
			if prefixed {
				name = w + "." + d.name
			}
			s.Metrics[name] = jsonMetric{Value: finite(median(vs)), Unit: d.unit}
		}
	}
	return s
}

// groupByWorkload groups results by workload, in first-run order.
func groupByWorkload(results []*runResult) ([]string, map[string][]*runResult) {
	by := map[string][]*runResult{}
	var order []string
	for _, r := range results {
		if _, ok := by[r.workload]; !ok {
			order = append(order, r.workload)
		}
		by[r.workload] = append(by[r.workload], r)
	}
	return order, by
}

// printRun prints one run's metrics by name with their units.
func printRun(w io.Writer, r *runResult, traced bool) {
	fmt.Fprintf(w, "== %s  seed %d  (%s)\n", r.workload, r.seed, strings.Join(r.procs, ", "))
	show := func(name, note string) {
		fmt.Fprintf(w, "  %-34s %14.6g %-9s %s\n", name, r.metrics[name], unitOf(name), note)
	}
	samples := fmt.Sprintf("n=%d", r.latSamples)
	for _, d := range endToEnd {
		switch {
		case strings.HasPrefix(d.name, "latency_"):
			show(d.name, samples)
		case d.name == "setup_s":
			show(d.name, fmt.Sprintf("median of %s", fmtFloats(r.setups)))
		default:
			show(d.name, "")
		}
	}
	if q := tailCut(r.latSamples); q > 0 {
		fmt.Fprintf(w, "  %-34s p%g is the highest cut with >= 10 of %d samples beyond it\n", "latency tail", 100*q, r.latSamples)
	}
	show("latency_p99_ms", samples)
	show("error_rate", fmt.Sprintf("%d failed of %d attempted", r.failed, r.attempted))
	for _, msg := range r.failures[:min(len(r.failures), 5)] {
		fmt.Fprintf(w, "  FAIL %s\n", msg)
	}
	listed := map[string]bool{"latency_p99_ms": true, "error_rate": true}
	for _, d := range endToEnd {
		listed[d.name] = true
	}
	for _, d := range perLayer {
		if _, ok := r.metrics[d.name]; ok && !listed[d.name] {
			show(d.name, "")
			listed[d.name] = true
		}
	}
	var rest []string
	for k := range r.metrics {
		if !listed[k] {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	for _, k := range rest {
		show(k, "")
	}
	if traced {
		fmt.Fprintf(w, "  %-34s %8s %12s %12s\n", "span self time", "count", "p50 us", "p90 us")
		for _, s := range r.spanStats {
			fmt.Fprintf(w, "  %-34s %8d %12.1f %12.1f\n", s.name, s.count,
				float64(s.p50)/float64(time.Microsecond), float64(s.p90)/float64(time.Microsecond))
		}
	}
}

// unitOf is the unit of a reported value: a declared metric's own, a
// "raw." value's metric's, or that of a diagnostic.
func unitOf(name string) string {
	name = strings.TrimPrefix(name, "raw.")
	if strings.HasPrefix(name, "cpu_ms_per_req.") {
		name = "cpu_ms_per_req"
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	return map[string]string{"error_rate": "ratio", "host_slowness": "x"}[name]
}

func fmtFloats(vs []float64) string {
	var parts []string
	for _, v := range vs {
		parts = append(parts, strconv.FormatFloat(v, 'f', 3, 64))
	}
	return strings.Join(parts, " ")
}

// printSpread prints, for every metric of every workload across the
// repetitions, the median, the quartiles, IQR/median and (max−min)/median,
// and flags an end-to-end metric whose IQR/median exceeds a third of its
// bound: too noisy to gate on at that bound.
func printSpread(w io.Writer, results []*runResult) {
	order, byWorkload := groupByWorkload(results)
	fmt.Fprintf(w, "== spread over %d repetitions\n", len(results)/len(order))
	fmt.Fprintf(w, "  %-46s %12s %12s %12s %10s %10s\n", "metric", "median", "q1", "q3", "iqr/med", "range/med")
	bounds := map[string]float64{}
	for _, d := range endToEnd {
		bounds[d.name] = d.bound
	}
	for _, name := range order {
		rs := byWorkload[name]
		var keys []string
		for k := range rs[0].metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			var vs []float64
			for _, r := range rs {
				vs = append(vs, r.metrics[k])
			}
			med := median(vs)
			q1, q3 := quartiles(vs)
			lo, hi := vs[0], vs[0]
			for _, v := range vs {
				lo, hi = min(lo, v), max(hi, v)
			}
			iqr := ratio(q3-q1, med)
			note := ""
			if b, ok := bounds[k]; ok && iqr > b/3 {
				note = fmt.Sprintf("  noisy: above a third of its bound %.2f", b)
			}
			fmt.Fprintf(w, "  %-46s %12.6g %12.6g %12.6g %9.1f%% %9.1f%%%s\n", name+"."+k, med, q1, q3,
				100*iqr, 100*ratio(hi-lo, med), note)
		}
	}
}

// writeDocument writes every measured value of every run with the
// environment that produced it.
func writeDocument(ctx context.Context, o options, results []*runResult) error {
	type runDoc struct {
		Workload   string             `json:"workload"`
		Seed       uint64             `json:"seed"`
		Processes  []string           `json:"processes"`
		Attempted  int                `json:"attempted"`
		Failed     int                `json:"failed"`
		LatSamples int                `json:"latency_samples"`
		SetupS     []float64          `json:"setup_rounds_s"`
		Metrics    map[string]float64 `json:"metrics"`
	}
	doc := struct {
		Command    string   `json:"command"`
		Traced     bool     `json:"traced"`
		Seconds    float64  `json:"seconds"`
		N          int      `json:"n"`
		CPUs       int      `json:"cpus"`
		LoadProcs  int      `json:"loadgen_gomaxprocs"`
		GoVersion  string   `json:"go_version"`
		Commit     string   `json:"commit"`
		Date       string   `json:"date"`
		Runs       []runDoc `json:"runs"`
		LoadClient int      `json:"load_clients"`
	}{
		Command:    "fobench " + strings.Join(os.Args[1:], " "),
		Traced:     bool(o.trace),
		Seconds:    o.seconds,
		N:          o.n,
		CPUs:       runtime.NumCPU(),
		LoadProcs:  runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(ctx, o.root),
		Date:       time.Now().UTC().Format(time.RFC3339),
		LoadClient: loadClients,
	}
	for _, r := range results {
		m := map[string]float64{}
		for k, v := range r.metrics {
			m[k] = finite(v)
		}
		doc.Runs = append(doc.Runs, runDoc{Workload: r.workload, Seed: r.seed, Processes: r.procs,
			Attempted: r.attempted, Failed: r.failed, LatSamples: r.latSamples, SetupS: r.setups, Metrics: m})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.jsonOut, append(data, '\n'), 0o644)
}

// gitCommit is the checked-out commit, or "unknown" outside a git
// checkout.
func gitCommit(ctx context.Context, root string) string {
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Package cli implements the command-line tools (traceinfo, fosim,
// fomodel, experiments) as testable functions: each takes its argument
// list and an output writer and returns an error instead of exiting, so
// the thin mains in cmd/ stay untested-by-necessity while the behaviour
// lives under test here.
package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"fomodel/internal/client"
	"fomodel/internal/experiments"
	"fomodel/internal/iw"
	"fomodel/internal/optimize"
	"fomodel/internal/server"
	"fomodel/internal/trace"
	"fomodel/internal/uarch"
	"fomodel/internal/workload"
)

// loadWorkloads resolves the tool's workload selection: an explicit
// -profile file, named profiles, or all profiles.
func loadWorkloads(profilePath string, names []string, n int, seed uint64) ([]*trace.Trace, error) {
	if profilePath != "" {
		f, err := os.Open(profilePath)
		if err != nil {
			return nil, err
		}
		p, err := workload.ReadProfile(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		g, err := workload.NewGenerator(p, seed)
		if err != nil {
			return nil, err
		}
		t, err := g.Generate(n)
		if err != nil {
			return nil, err
		}
		return []*trace.Trace{t}, nil
	}
	if len(names) == 0 {
		names = workload.Names()
	}
	traces := make([]*trace.Trace, 0, len(names))
	for _, name := range names {
		t, err := workload.Generate(name, n, seed)
		if err != nil {
			return nil, err
		}
		traces = append(traces, t)
	}
	return traces, nil
}

// Traceinfo implements cmd/traceinfo: the model-facing statistics of each
// workload.
func Traceinfo(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("traceinfo", flag.ContinueOnError)
	fs.SetOutput(out)
	n := fs.Int("n", 200000, "dynamic instructions per workload")
	seed := fs.Uint64("seed", 1, "workload generation seed")
	profile := fs.String("profile", "", "JSON profile file instead of named workloads")
	if err := fs.Parse(args); err != nil {
		return err
	}
	traces, err := loadWorkloads(*profile, fs.Args(), *n, *seed)
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "bench\talpha\tbeta\tR2\tL\tbr/instr\tmisp%\tiL1miss/ki\tiL2miss/ki\tdShort/ki\tdLong/ki\toverlap")
	// The analysis is the baseline machine's, the one every predict on
	// the paper's machine reads.
	scfg := uarch.DefaultConfig().Analysis()
	for _, t := range traces {
		an, err := experiments.AnalyzeAndStore(nil, t, iw.DefaultWindows(), scfg)
		if err != nil {
			return err
		}
		law, sum := an.Law, an.Summary
		ki := float64(sum.Instructions) / 1000
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.3f\t%.2f\t%.3f\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			t.Name, law.Alpha, law.Beta, law.R2, sum.AvgLatency,
			float64(sum.Branches)/float64(sum.Instructions),
			100*sum.MispredictRate(),
			float64(sum.ICacheShort)/ki, float64(sum.ICacheLong)/ki,
			float64(sum.DCacheShort)/ki, float64(sum.DCacheLong)/ki,
			sum.OverlapFactor())
	}
	return tw.Flush()
}

// machineFlags registers the shared machine-parameter flags, including
// the §7 extensions (clusters, fetch buffer, TLB, FU limits). They are
// the flag-facing form of server.MachineSpec, so the CLI tools and the
// serving daemon describe machines identically.
type machineFlags struct {
	width, depth, window, rob *int
	clusters, bypass, fetbuf  *int
	tlb                       *bool
	fu                        *string
}

func addMachineFlags(fs *flag.FlagSet) machineFlags {
	return machineFlags{
		width:    fs.Int("width", 4, "fetch/dispatch/issue/retire width"),
		depth:    fs.Int("depth", 5, "front-end pipeline depth"),
		window:   fs.Int("window", 48, "issue window size"),
		rob:      fs.Int("rob", 128, "reorder buffer size"),
		clusters: fs.Int("clusters", 1, "issue window partitions (>1 adds bypass latency)"),
		bypass:   fs.Int("bypass", 1, "cross-cluster bypass latency in cycles"),
		fetbuf:   fs.Int("fetch-buffer", 0, "fetch buffer entries beyond the pipeline"),
		tlb:      fs.Bool("tlb", false, "add the default 64-entry data TLB"),
		fu:       fs.String("fu", "", "per-class issue limits, e.g. mul=1,load=2"),
	}
}

// spec projects the parsed flags onto the shared machine description.
func (m machineFlags) spec() server.MachineSpec {
	return server.MachineSpec{
		Width:       *m.width,
		Depth:       *m.depth,
		Window:      *m.window,
		ROB:         *m.rob,
		Clusters:    *m.clusters,
		Bypass:      *m.bypass,
		FetchBuffer: *m.fetbuf,
		TLB:         *m.tlb,
		FU:          *m.fu,
	}
}

func (m machineFlags) simConfig() (uarch.Config, error) { return m.spec().SimConfig() }

// Fosim implements cmd/fosim: the detailed simulator.
func Fosim(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fosim", flag.ContinueOnError)
	fs.SetOutput(out)
	n := fs.Int("n", 500000, "dynamic instructions per workload")
	seed := fs.Uint64("seed", 1, "workload generation seed")
	mf := addMachineFlags(fs)
	idealI := fs.Bool("ideal-icache", false, "disable I-cache stalls")
	idealD := fs.Bool("ideal-dcache", false, "disable D-cache miss latencies")
	idealP := fs.Bool("ideal-predictor", false, "disable branch misprediction breaks")
	dump := fs.String("dump", "", "write the generated trace to this file and exit")
	load := fs.String("load", "", "simulate a trace file instead of generating one")
	profile := fs.String("profile", "", "JSON profile file instead of named workloads")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := mf.simConfig()
	if err != nil {
		return err
	}
	cfg.IdealICache = *idealI
	cfg.IdealDCache = *idealD
	cfg.IdealPredictor = *idealP

	var traces []*trace.Trace
	switch {
	case *load != "":
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		t, err := trace.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		traces = []*trace.Trace{t}
	default:
		var err error
		traces, err = loadWorkloads(*profile, fs.Args(), *n, *seed)
		if err != nil {
			return err
		}
	}

	if *dump != "" {
		if len(traces) != 1 {
			return fmt.Errorf("-dump requires exactly one workload, got %d", len(traces))
		}
		f, err := os.Create(*dump)
		if err != nil {
			return err
		}
		if err := trace.Write(f, traces[0]); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "bench\tinstrs\tcycles\tIPC\tCPI\tmisp\tiShort\tiLong\tdShort\tdLong\tavgWin\tavgROB")
	for _, t := range traces {
		r, err := uarch.Simulate(t, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\t%.3f\t%d\t%d\t%d\t%d\t%d\t%.1f\t%.1f\n",
			t.Name, r.Instructions, r.Cycles, r.IPC(), r.CPI(),
			r.Mispredicts, r.ICacheShort, r.ICacheLong, r.DCacheShort, r.DCacheLong,
			r.AvgWindowOccupancy(), r.AvgROBOccupancy())
	}
	return tw.Flush()
}

// Fomodel implements cmd/fomodel: the analytical model, optionally
// validated against the simulator. With -remote it computes nothing
// locally: the workloads are evaluated by a fomodeld daemon through one
// /v1/batch round trip, and the output — table or -json — is identical
// to the local run's, because the daemon's per-item bodies are pinned
// byte-equal to `fomodel -json` output. ctx bounds the remote call, so
// an interrupt cancels an in-flight batch instead of leaving it to the
// request timeout.
func Fomodel(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fomodel", flag.ContinueOnError)
	fs.SetOutput(out)
	n := fs.Int("n", 500000, "dynamic instructions per workload")
	seed := fs.Uint64("seed", 1, "workload generation seed")
	sim := fs.Bool("sim", false, "also run the detailed simulator and report model error")
	jsonOut := fs.Bool("json", false, "emit one JSON object per workload instead of the table")
	branchMode := fs.String("branch-mode", "midpoint", "branch penalty derivation: midpoint|isolated|measured")
	mf := addMachineFlags(fs)
	profile := fs.String("profile", "", "JSON profile file instead of named workloads")
	remote := fs.String("remote", "", "fomodeld base URL (e.g. http://127.0.0.1:8750): predict via the daemon instead of computing locally")
	remoteTimeout := fs.Duration("remote-timeout", client.DefaultRequestTimeout, "per-request deadline for -remote calls")
	optimizePath := fs.String("optimize", "", `JSON optimize-spec file ("-" = stdin): search the design space instead of predicting`)
	dumpProfile := fs.String("dump-profile", "", "print the named built-in workload's profile JSON (editable, registerable via POST /v1/workloads/{name}) and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *dumpProfile != "" {
		prof, err := workload.ByName(*dumpProfile)
		if err != nil {
			return fmt.Errorf("fomodel: %w", err)
		}
		body, err := server.EncodeIndented(prof)
		if err != nil {
			return err
		}
		_, err = out.Write(body)
		return err
	}

	if *optimizePath != "" {
		return runOptimize(ctx, *optimizePath, *jsonOut, *remote, *remoteTimeout, *n, *seed, out)
	}

	mode, err := server.ParseBranchMode(*branchMode)
	if err != nil {
		return fmt.Errorf("fomodel: unknown branch mode %q", *branchMode)
	}

	var enc *json.Encoder
	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	switch {
	case *jsonOut:
		enc = json.NewEncoder(out)
		enc.SetIndent("", "  ")
	case *sim:
		fmt.Fprintln(tw, "bench\tidealCPI\tbrCPI\tiL1CPI\tiL2CPI\tdCPI\tmodelCPI\tsimCPI\terr%")
	default:
		fmt.Fprintln(tw, "bench\tidealCPI\tbrCPI\tiL1CPI\tiL2CPI\tdCPI\tmodelCPI")
	}
	// emit renders one prediction record, identically for local and
	// remote computations.
	emit := func(record server.PredictRecord) error {
		if enc != nil {
			return enc.Encode(record)
		}
		est := record.Estimate
		if !*sim {
			fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n",
				record.Bench, est.SteadyCPI, est.BranchCPI, est.ICacheShortCPI, est.ICacheLongCPI, est.DCacheCPI, est.CPI)
			return nil
		}
		simCPI := *record.SimCPI
		errPct := 100 * (est.CPI - simCPI) / simCPI
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%+.1f\n",
			record.Bench, est.SteadyCPI, est.BranchCPI, est.ICacheShortCPI, est.ICacheLongCPI, est.DCacheCPI, est.CPI, simCPI, errPct)
		return nil
	}

	if *remote != "" {
		if *profile != "" {
			return fmt.Errorf("fomodel: -remote does not take -profile files; register the profile with POST /v1/workloads/{name} and pass the registered name instead")
		}
		names := fs.Args()
		if len(names) == 0 {
			names = workload.Names()
		}
		items := make([]server.PredictRequest, len(names))
		for i, name := range names {
			items[i] = server.PredictRequest{
				Bench: name, N: *n, Seed: *seed,
				Machine: mf.spec(), BranchMode: *branchMode, Sim: *sim,
			}
		}
		cl := client.New(*remote)
		cl.RequestTimeout = *remoteTimeout
		batch, err := cl.Batch(ctx, items)
		if err != nil {
			return fmt.Errorf("fomodel: %w", err)
		}
		for i, item := range batch {
			if item.Status != 200 {
				return fmt.Errorf("fomodel: %s: %s (HTTP %d)", names[i], item.Error, item.Status)
			}
			if *jsonOut {
				// The item body already is the daemon's exact indented
				// JSON — identical to what enc would produce locally.
				if _, err := io.WriteString(out, item.Body); err != nil {
					return err
				}
				continue
			}
			var record server.PredictRecord
			if err := json.Unmarshal([]byte(item.Body), &record); err != nil {
				return fmt.Errorf("fomodel: %s: bad daemon response: %w", names[i], err)
			}
			if err := emit(record); err != nil {
				return err
			}
		}
		return tw.Flush()
	}

	ucfg, err := mf.simConfig()
	if err != nil {
		return err
	}
	traces, err := loadWorkloads(*profile, fs.Args(), *n, *seed)
	if err != nil {
		return err
	}

	// The full per-trace pipeline is server.Predict. The daemon's
	// /v1/predict serves its analysis from its caches but composes the
	// answer with the same code, which is what keeps a server response
	// byte-equivalent in content to this tool's output.
	for _, t := range traces {
		record, err := server.Predict(t, ucfg, mode, *sim, nil)
		if err != nil {
			return err
		}
		if err := emit(record); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// runOptimize implements `fomodel -optimize`: a design-space search over
// the machine parameters, driven by a JSON spec. Locally it runs the
// search through an in-process server.Server — the exact code a fomodeld
// daemon runs for /v1/optimize — so local -json output is byte-identical
// to what -remote fetches from a daemon with the same trace defaults.
func runOptimize(ctx context.Context, path string, jsonOut bool, remote string, remoteTimeout time.Duration, n int, seed uint64, out io.Writer) error {
	var raw []byte
	var err error
	if path == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	var spec optimize.Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return fmt.Errorf("fomodel: bad optimize spec: %w", err)
	}

	if remote != "" {
		cl := client.New(remote)
		cl.RequestTimeout = remoteTimeout
		body, err := cl.OptimizeRaw(ctx, spec)
		if err != nil {
			return fmt.Errorf("fomodel: %w", err)
		}
		if jsonOut {
			_, err := out.Write(body)
			return err
		}
		var resp server.OptimizeResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("fomodel: bad daemon response: %w", err)
		}
		_, err = io.WriteString(out, resp.Render)
		return err
	}

	// The spec's own deadline applies locally too, mirroring the daemon.
	if spec.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(spec.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	s := server.New(server.Config{N: n, Seed: seed}, nil)
	res, err := s.Optimize(ctx, spec)
	if err != nil {
		return fmt.Errorf("fomodel: %w", err)
	}
	if jsonOut {
		body, err := server.EncodeIndented(server.OptimizeResponse{Result: res, Render: res.Render(), CSV: res.CSV()})
		if err != nil {
			return err
		}
		_, err = out.Write(body)
		return err
	}
	_, err = io.WriteString(out, res.Render())
	return err
}

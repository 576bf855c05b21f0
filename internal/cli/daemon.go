package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"time"

	"fomodel/internal/artifact"
	"fomodel/internal/httpfront"
	"fomodel/internal/registry"
	"fomodel/internal/server"
)

// Fomodeld implements cmd/fomodeld: the HTTP model-serving daemon. It
// binds the listen address, serves until ctx is canceled (the main wires
// SIGINT/SIGTERM into ctx), then shuts down gracefully, draining
// in-flight requests — running sweeps included — for up to the -drain
// timeout. Structured JSON logs go to out.
func Fomodeld(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fomodeld", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "127.0.0.1:8750", "listen address")
	n := fs.Int("n", 500000, "default dynamic instructions per workload")
	seed := fs.Uint64("seed", 1, "default workload generation seed")
	parallel := fs.Int("parallel", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	inflight := fs.Int("max-inflight", 0, "concurrent API requests before 429 shedding (0 = 2×GOMAXPROCS)")
	cacheEntries := fs.Int("cache", 1024, "response cache capacity in entries")
	traceEntries := fs.Int("trace-cache", 64, "decoded-trace cache capacity in entries; it holds the traces read more than once (simulations, sweeps, the warm-up), at any (n, seed); a ROB variant of an analysis regroups it without a trace, and below 12 a full-suite sweep reloads traces")
	analysisEntries := fs.Int("analysis-cache", 128, "in-memory analysis bundle cache capacity in entries, shared by predicts, sweeps and the warm-up")
	reqTimeout := fs.Duration("request-timeout", 2*time.Minute, "per-request computation deadline")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	storeDir := fs.String("store", "", "workload-artifact store directory (empty = no persistence)")
	storeMax := fs.Int64("store-max-bytes", 1<<30, "artifact store size bound in bytes (0 = unbounded)")
	warm := fs.Bool("warm", true, "precompute the default workload bundles at boot (background)")
	wlQuota := fs.Int("workload-quota", 0, "registered workloads allowed per tenant (0 = 16)")
	wlQuotaBytes := fs.Int64("workload-quota-bytes", 0, "registered-profile bytes allowed per tenant (0 = 1 MiB)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("fomodeld: unexpected argument %q", fs.Arg(0))
	}

	logger := slog.New(slog.NewJSONHandler(out, nil))
	var store *artifact.Store
	if *storeDir != "" {
		var err error
		store, err = artifact.Open(*storeDir, *storeMax)
		if err != nil {
			return fmt.Errorf("fomodeld: open artifact store: %w", err)
		}
		logger.Info("artifact store open", "dir", store.Dir(), "bytes", store.SizeBytes())
	}
	reg := registry.New(registry.Config{
		MaxPerTenant:      *wlQuota,
		MaxBytesPerTenant: *wlQuotaBytes,
		Store:             store,
	})
	if n, err := reg.Load(); err != nil {
		logger.Warn("workload registry load failed", "err", err.Error())
	} else if n > 0 {
		logger.Info("workload registry loaded", "workloads", n)
	}
	srv := server.New(server.Config{
		N:                    *n,
		Seed:                 *seed,
		Workers:              *parallel,
		MaxInflight:          *inflight,
		CacheEntries:         *cacheEntries,
		TraceCacheEntries:    *traceEntries,
		AnalysisCacheEntries: *analysisEntries,
		RequestTimeout:       *reqTimeout,
		Store:                store,
		Registry:             reg,
	}, logger)
	if *warm {
		// Warm in the background so the listener is up immediately; the
		// first requests for a still-cold workload simply join the warm
		// computation through the suite's single-flight cache. Until the
		// warm-up completes, /readyz answers 503 so a routing proxy keeps
		// this cold replica out of its ring; /healthz stays 200 throughout.
		srv.SetReady(false)
		go func() {
			start := time.Now()
			if err := srv.Warm(ctx); err != nil {
				logger.Info("warm-up stopped", "err", err.Error())
				return
			}
			srv.SetReady(true)
			logger.Info("warm-up complete", "dur_ms", time.Since(start).Milliseconds())
		}()
	}

	if err := httpfront.Serve(ctx, "fomodeld", *addr, srv.Handler(), *drain, logger, "n", *n, "seed", *seed); err != nil {
		return err
	}
	logger.Info("fomodeld stopped")
	return nil
}

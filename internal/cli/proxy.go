package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"

	"fomodel/internal/httpfront"
	"fomodel/internal/reqkey"
	"fomodel/internal/router"
)

// Fomodelproxy implements cmd/fomodelproxy: the consistent-hash routing
// proxy over a set of fomodeld replicas. It binds the listen address,
// starts the replica /readyz probe loop, serves until ctx is canceled,
// then shuts down gracefully, draining in-flight requests for up to the
// -drain timeout. Structured JSON logs go to out.
func Fomodelproxy(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fomodelproxy", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "127.0.0.1:8760", "listen address")
	replicas := fs.String("replicas", "", "comma-separated fomodeld base URLs (required)")
	n := fs.Int("n", 500000, "replicas' default dynamic instructions per workload (must match the fleet)")
	seed := fs.Uint64("seed", 1, "replicas' default workload generation seed (must match the fleet)")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "replica /readyz probe period")
	probeTimeout := fs.Duration("probe-timeout", time.Second, "per-probe deadline")
	ejectAfter := fs.Int("eject-after", 3, "consecutive transport failures before passive ejection")
	upstreamTimeout := fs.Duration("upstream-timeout", 150*time.Second, "per-attempt upstream deadline (buffered requests)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("fomodelproxy: unexpected argument %q", fs.Arg(0))
	}
	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		return errors.New("fomodelproxy: -replicas requires at least one fomodeld base URL")
	}

	logger := slog.New(slog.NewJSONHandler(out, nil))
	rt, err := router.New(router.Config{
		Replicas:        urls,
		Defaults:        reqkey.Defaults{N: *n, Seed: *seed},
		ProbeInterval:   *probeInterval,
		ProbeTimeout:    *probeTimeout,
		EjectAfter:      *ejectAfter,
		UpstreamTimeout: *upstreamTimeout,
	}, logger)
	if err != nil {
		return err
	}
	//folint:allow(ctxflow) probes must outlive ctx: they keep health fresh while in-flight requests drain after shutdown begins
	probeCtx, stopProbes := context.WithCancel(context.Background())
	defer stopProbes()
	rt.Start(probeCtx)

	if err := httpfront.Serve(ctx, "fomodelproxy", *addr, rt.Handler(), *drain, logger, "replicas", len(urls)); err != nil {
		return err
	}
	stopProbes()
	rt.Wait()
	logger.Info("fomodelproxy stopped")
	return nil
}

// Command fomodelproxy is the cache-aware routing proxy for a fleet of
// fomodeld replicas: consistent-hash request routing (each canonical
// request key has one home replica, so the fleet's response caches
// partition instead of duplicating), replica health probing with
// ejection and re-admission, and sequential failover to ring successors
// on transport errors, shedding, and ejection. See internal/router for
// the routing core and internal/cli.Fomodelproxy for the flags.
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"fomodel/internal/cli"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := cli.Fomodelproxy(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fomodelproxy:", err)
		os.Exit(1)
	}
}

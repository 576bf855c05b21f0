// Fixture for the ctxflow analyzer: library code (non-main package).
package client

import (
	"context"
	"net/http"
	"os/exec"
)

func fresh() context.Context {
	return context.Background() // want `context\.Background\(\) outside package main`
}

func todo() context.Context {
	return context.TODO() // want `context\.TODO\(\) outside package main`
}

func unused(ctx context.Context, n int) int { // want `context parameter ctx is never used`
	return n + 1
}

func deliberateDrop(_ context.Context, n int) int {
	return n + 1
}

func threaded(ctx context.Context) (*http.Request, error) {
	return http.NewRequestWithContext(ctx, "GET", "http://replica", nil)
}

func detachedRequest(ctx context.Context) {
	req, err := http.NewRequest("GET", "http://replica", nil) // want `http\.NewRequest in a function that has a ctx`
	_, _, _ = req, err, ctx
}

func detachedFetch(ctx context.Context) {
	resp, err := http.Get("http://replica") // want `http\.Get uses the background context`
	_, _, _ = resp, err, ctx
}

func detachedCommand(ctx context.Context) {
	cmd := exec.Command("true") // want `exec\.Command in a function that has a ctx`
	_, _ = cmd, ctx
}

func usedInClosure(ctx context.Context) func() {
	return func() { <-ctx.Done() }
}

var literalWithCtx = func(ctx context.Context) int { // want `context parameter ctx is never used`
	return 1
}

func noCtxNoRules() (*http.Request, error) {
	// Without a ctx in the signature there is nothing to thread; the
	// detached constructor is not flagged here.
	return http.NewRequest("GET", "http://replica", nil)
}

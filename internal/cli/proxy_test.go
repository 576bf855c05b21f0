package cli

import (
	"context"
	"io"
	"strings"
	"testing"
)

// TestFomodelproxyRejectsBadReplicasAndRetiredFlags pins the proxy's
// flag surface: a replica listed twice (trailing slash trimmed) and an
// empty -replicas are errors before anything listens, and the retired
// -route, -vnodes and -load-factor flags are unknown. The context is
// canceled up front, so a proxy that wrongly starts shuts down at once
// and returns nil instead of serving forever.
func TestFomodelproxyRejectsBadReplicasAndRetiredFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-replicas", "http://127.0.0.1:1,http://127.0.0.1:1/"}, "http://127.0.0.1:1 is listed more than once"},
		{[]string{"-replicas", " , "}, "-replicas requires at least one"},
		{[]string{}, "-replicas requires at least one"},
		{[]string{"-replicas", "http://127.0.0.1:1", "-route", "hash"}, "flag provided but not defined: -route"},
		{[]string{"-replicas", "http://127.0.0.1:1", "-vnodes", "64"}, "flag provided but not defined: -vnodes"},
		{[]string{"-replicas", "http://127.0.0.1:1", "-load-factor", "1.25"}, "flag provided but not defined: -load-factor"},
	} {
		err := Fomodelproxy(ctx, append([]string{"-addr", "127.0.0.1:0"}, tc.args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Fomodelproxy(%q) err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fomodel/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// earlyReturnProfile sets every sampler parameter at the value where
// the sampler returns 1 without drawing: a geometric mean of 1 and a
// Pareto cap of 1.
func earlyReturnProfile() Profile {
	p := baseProfile("early-return")
	p.DepShortMean = 1
	p.ColdBurstMean = 1
	p.DepLongMax = 1
	return p
}

// traceDigest returns the hex SHA-256 of the trace's binary encoding.
func traceDigest(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	h := sha256.New()
	if err := trace.Write(h, tr); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGolden pins the generator's raw output: the digest of the
// encoded trace for every built-in profile at three seeds, the
// shortest trace, and a custom profile whose samplers never draw. Any
// change to these bytes must come with a GenVersion bump. Regenerate
// deliberately with:
//
//	go test ./internal/workload -run TestGenerateGolden -update
func TestGenerateGolden(t *testing.T) {
	const n = 100000
	var got strings.Builder
	for _, p := range Profiles() {
		for _, seed := range []uint64{1, 2, 7} {
			tr, err := Generate(p.Name, n, seed)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s n=%d seed=%d %s\n", p.Name, n, seed, traceDigest(t, tr))
		}
	}
	tr, err := Generate("gzip", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "gzip n=1 seed=1 %s\n", traceDigest(t, tr))
	tr, err = GenerateProfile(earlyReturnProfile(), n, 3)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "early-return n=%d seed=3 %s\n", n, traceDigest(t, tr))

	path := filepath.Join("testdata", "generate.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, generated %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("generator output changed:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}

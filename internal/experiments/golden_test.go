package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// compareGolden checks got against the named golden file, rewriting it
// under -update.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output changed; rerun with -update if intentional.\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// The purely analytic experiments (no workload generation involved) must
// render byte-identically forever; golden files lock them down. Regenerate
// deliberately with:
//
//	go test ./internal/experiments -run TestGolden -update
func TestGoldenAnalyticFigures(t *testing.T) {
	s := smallSuite() // analytic figures ignore the workloads
	cases := []struct {
		name string
		run  func(*Suite) (Renderable, error)
	}{
		{"fig8", func(s *Suite) (Renderable, error) { return Figure8(s) }},
		{"fig10", func(s *Suite) (Renderable, error) { return Figure10(s) }},
		{"fig12", func(s *Suite) (Renderable, error) { return Figure12(s) }},
		{"fig13", func(s *Suite) (Renderable, error) { return Figure13(s) }},
		{"fig17", func(s *Suite) (Renderable, error) { return Figure17(s) }},
		{"fig18", func(s *Suite) (Renderable, error) { return Figure18(s) }},
		{"fig19", func(s *Suite) (Renderable, error) { return Figure19(s) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run(s)
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, tc.name, res.Render())
		})
	}
}

// TestGoldenSweeps locks down both renderings (aligned table and CSV) of
// the two simulator-validated sweep experiments at a fixed small trace
// length, pinning the exact bytes /v1/sweep and cmd/experiments emit.
func TestGoldenSweeps(t *testing.T) {
	s := NewSuite(60000, 1)
	cases := []struct {
		name string
		run  func(context.Context, *Suite) (*SweepResult, error)
	}{
		{"sweep-window", WindowSweep},
		{"sweep-rob", ROBSweep},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, tc.name, res.Render())
			compareGolden(t, tc.name+".csv", res.CSV())
		})
	}
}

// TestGoldenFigure14 locks down Fig. 14 on the small suite: the
// simulated, eq. 8 and isolated long-miss penalties per benchmark.
func TestGoldenFigure14(t *testing.T) {
	res, err := Figure14(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "fig14", res.Render())
}

// TestGoldenIWFigures locks down the IW characteristic figures on the
// small suite: Fig. 4's curves, Table 1's power-law fits, Fig. 5's
// measured-vs-fit rows (gzip, vortex, vpr) and Fig. 6's width-capped
// curves (gcc), so a change to the IW kernel shows in rendered bytes.
func TestGoldenIWFigures(t *testing.T) {
	s := smallSuite()
	cases := []struct {
		name string
		run  func(*Suite) (Renderable, error)
	}{
		{"fig4", func(s *Suite) (Renderable, error) { return Figure4(s) }},
		{"table1", func(s *Suite) (Renderable, error) { return Table1(s) }},
		{"fig5", func(s *Suite) (Renderable, error) { return Figure5(s) }},
		{"fig6", func(s *Suite) (Renderable, error) { return Figure6(s) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run(s)
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, tc.name, res.Render())
		})
	}
}

// registryGoldens lists the registry experiments that TestGoldenRegistry
// locks down on the small suite: every one that the tests above do not.
var registryGoldens = []string{
	"fig2", "fig7", "fig9", "fig11", "fig15", "fig16",
	"ext-fu", "ext-fetchbuf", "ext-tlb", "ext-cluster", "predictors",
	"statsim", "refine-branch", "seeds", "inorder", "littleslaw",
}

// goldenExemptions names the registry experiments that have no golden
// file, with the reason.
var goldenExemptions = map[string]string{
	"methods": "its table reports wall-clock times, which differ run to run",
}

// TestGoldenRegistry renders each experiment of registryGoldens through
// DefaultRegistry on one small suite and compares it with its golden
// file, so a change to the model, the simulator or the glue between
// them shows in rendered bytes.
func TestGoldenRegistry(t *testing.T) {
	s := smallSuite()
	reg := DefaultRegistry()
	for _, label := range registryGoldens {
		t.Run(label, func(t *testing.T) {
			res, err := reg[label](context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, label, res.Render())
		})
	}
}

// TestEveryExperimentHasGolden fails when a registry experiment has
// neither a golden file nor an entry in goldenExemptions, so a new
// experiment arrives with its rendering pinned.
func TestEveryExperimentHasGolden(t *testing.T) {
	reg := DefaultRegistry()
	for _, label := range reg.Labels() {
		_, err := os.Stat(filepath.Join("testdata", label+".golden"))
		_, exempt := goldenExemptions[label]
		switch {
		case err == nil && exempt:
			t.Errorf("%s has a golden file and an exemption", label)
		case err != nil && !exempt:
			t.Errorf("%s has no golden file (testdata/%s.golden) and no exemption", label, label)
		}
	}
	for label := range goldenExemptions {
		if _, ok := reg[label]; !ok {
			t.Errorf("exemption for %s, which is not in the registry", label)
		}
	}
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// goldenFile is bench/testdata/golden.json: the verification set with
// the sha256 digest of each response body at one trace length.
type goldenFile struct {
	N        int            `json:"n"`
	Requests []goldenRecord `json:"requests"`
}

type goldenRecord struct {
	Class  string `json:"class"`
	Path   string `json:"path"`
	Body   string `json:"body"`
	SHA256 string `json:"sha256"`
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// readGolden loads the golden file and checks it describes the current
// verification set at trace length n.
func readGolden(path string, n int) (*goldenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if g.N != n {
		return nil, fmt.Errorf("%s holds digests for -n %d, not %d; pass -golden off to skip them", path, g.N, n)
	}
	set := verificationSet()
	if len(g.Requests) != len(set) {
		return nil, fmt.Errorf("%s has %d requests, the verification set %d; regenerate it with -update-golden", path, len(g.Requests), len(set))
	}
	for i, r := range set {
		if g.Requests[i].Path != r.Path || g.Requests[i].Body != string(r.Body) {
			return nil, fmt.Errorf("%s request %d differs from the verification set; regenerate it with -update-golden", path, i)
		}
	}
	return &g, nil
}

// newGolden builds a golden file from one run's verification bodies.
func newGolden(n int, bodies [][]byte) *goldenFile {
	g := &goldenFile{N: n}
	for i, r := range verificationSet() {
		g.Requests = append(g.Requests, goldenRecord{Class: verificationClass(i), Path: r.Path, Body: string(r.Body), SHA256: digest(bodies[i])})
	}
	return g
}

func (g *goldenFile) write(path string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// mismatches lists the verification bodies whose digest differs from the
// golden one.
func (g *goldenFile) mismatches(bodies [][]byte) []string {
	var out []string
	for i, rec := range g.Requests {
		if got := digest(bodies[i]); got != rec.SHA256 {
			out = append(out, fmt.Sprintf("golden %s request %d %s: sha256 %s, want %s", rec.Class, i, rec.Body, got[:12], rec.SHA256[:12]))
		}
	}
	return out
}

// sweepCPIError is the mean |model−sim|/sim over every point of the
// given sweep bodies, in percent.
func sweepCPIError(bodies [][]byte) (float64, error) {
	var sum float64
	var n int
	for _, b := range bodies {
		var resp struct {
			Points []struct {
				SimCPI   float64 `json:"sim_cpi"`
				ModelCPI float64 `json:"model_cpi"`
			} `json:"points"`
		}
		if err := json.NewDecoder(bytes.NewReader(b)).Decode(&resp); err != nil {
			return 0, err
		}
		for _, p := range resp.Points {
			if p.SimCPI <= 0 {
				return 0, fmt.Errorf("sweep point with sim CPI %v", p.SimCPI)
			}
			sum += math.Abs(p.ModelCPI-p.SimCPI) / p.SimCPI
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("no sweep points")
	}
	return 100 * sum / float64(n), nil
}

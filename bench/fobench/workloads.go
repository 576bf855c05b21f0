package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
)

// workloadDef is one named traffic mix against one system topology.
type workloadDef struct {
	name string
	why  string
	// topology is the system under test at trace length n.
	topology func(n int) topology
	traffic  func(seed uint64) traffic
	// populate brings the system to the state the workload measures;
	// for cyclic working sets it returns each key's response body, which
	// every later response to that key must equal.
	populate func(ctx context.Context, clients []*http.Client, base string) (map[string][]byte, error)
	// check verifies one timed response body; expected is populate's map.
	check func(expected map[string][]byte) func(request, []byte) error
	// reference builds the kernel whose slowness scales the workload's
	// times: the one with the workload's own resource mix.
	reference func() (*kernel, error)
	// keep is the number of timed replies a traced run replays in process.
	keep int
	// fromStore replays predicts from the replicas' artifact stores
	// instead of recomputing their analyses.
	fromStore bool
}

// coldStoreBytes is cold-model's store bound: 256 MiB at the default
// 100000-instruction traces, scaled with n so the store holds the same
// number of traces (about 107) at any trace length.
func coldStoreBytes(n int) int64 { return 268435456 * int64(n) / 100000 }

var workloads = []workloadDef{
	{
		name:      "hot-direct",
		why:       "24 keys, all response-cache hits on one daemon: the HTTP, decode, key and cache path every request pays",
		topology:  func(int) topology { return topology{replicas: 1} },
		traffic:   func(seed uint64) traffic { return cyclic(hotKeys(), seed) },
		populate:  populateKeys(hotKeys),
		check:     checkExpected,
		reference: httpKernel,
		keep:      8,
	},
	{
		name: "fleet-store",
		why:  "proxy over 2 replicas whose 16-entry caches cycle 96 keys: the router hop and the artifact-store read path",
		topology: func(int) topology {
			return topology{replicas: 2, daemonArgs: []string{"-cache", "16", "-analysis-cache", "16"}, store: true, proxy: true, gomaxprocs: 1}
		},
		traffic:   func(seed uint64) traffic { return cyclic(storeKeys(), seed) },
		populate:  populateKeys(storeKeys),
		check:     checkExpected,
		reference: httpKernel,
		keep:      8,
		fromStore: true,
	},
	{
		name: "cold-model",
		why:  "a fresh trace seed per predict: generation, IW characteristic, statistics, and store writes with eviction",
		topology: func(n int) topology {
			return topology{replicas: 1, store: true, storeMaxBytes: coldStoreBytes(n)}
		},
		traffic:   coldTraffic,
		populate:  func(context.Context, []*http.Client, string) (map[string][]byte, error) { return nil, nil },
		check:     func(map[string][]byte) func(request, []byte) error { return checkPredict },
		reference: computeKernel,
		keep:      6,
	},
	{
		name:      "sweep-sim",
		why:       "a fresh 12-cell sweep per request: the detailed simulator, prep-cache reuse and the sweep worker pool",
		topology:  func(int) topology { return topology{replicas: 1} },
		traffic:   sweepTraffic,
		populate:  populateSweep,
		check:     func(map[string][]byte) func(request, []byte) error { return checkSweep },
		reference: computeKernel,
		keep:      3,
	},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// selectWorkloads resolves -workload: one name, or "all".
func selectWorkloads(name string) ([]workloadDef, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workloadDef{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames(), ", "))
}

// populateKeys requests every key of the working set once, so the timed
// phase finds it in the caches (hot-direct) or the stores (fleet-store),
// and records each verified body.
func populateKeys(keys func() []request) func(context.Context, []*http.Client, string) (map[string][]byte, error) {
	return func(ctx context.Context, clients []*http.Client, base string) (map[string][]byte, error) {
		list := keys()
		expected := map[string][]byte{}
		for i, rep := range fetchAll(ctx, clients, base, list) {
			if msg := failure(list[i], rep, checkPredict); msg != "" {
				return nil, errors.New(msg)
			}
			expected[string(list[i].Body)] = rep.body
		}
		return expected, nil
	}
}

// populateSweep runs one sweep over every built-in, so the daemon holds
// each workload's analysis and classification pass before timing starts.
func populateSweep(ctx context.Context, clients []*http.Client, base string) (map[string][]byte, error) {
	r := sweepReq("width", builtins, []int{4})
	rep := fetchAll(ctx, clients[:1], base, []request{r})[0]
	if msg := failure(r, rep, checkSweep); msg != "" {
		return nil, errors.New(msg)
	}
	return nil, nil
}

// checkExpected verifies a cyclic working set's responses byte for byte
// against the bodies recorded at set-up.
func checkExpected(expected map[string][]byte) func(request, []byte) error {
	return func(r request, body []byte) error {
		if !bytes.Equal(body, expected[string(r.Body)]) {
			return errors.New("body differs from the one served at set-up")
		}
		return nil
	}
}

// checkPredict verifies a predict response names the requested bench and
// carries a finite positive CPI.
func checkPredict(r request, body []byte) error {
	var req predictBody
	if err := json.Unmarshal(r.Body, &req); err != nil {
		return err
	}
	var resp struct {
		Bench    string `json:"bench"`
		Estimate struct {
			CPI float64 `json:"CPI"`
		} `json:"estimate"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Bench != req.Bench {
		return fmt.Errorf("response for bench %q", resp.Bench)
	}
	if !(resp.Estimate.CPI > 0) || math.IsInf(resp.Estimate.CPI, 0) {
		return fmt.Errorf("CPI %v", resp.Estimate.CPI)
	}
	return nil
}

// checkSweep verifies a sweep response has one point per grid cell, each
// with positive simulated and modeled CPI.
func checkSweep(r request, body []byte) error {
	var req sweepBody
	if err := json.Unmarshal(r.Body, &req); err != nil {
		return err
	}
	var resp struct {
		Points []struct {
			SimCPI   float64 `json:"sim_cpi"`
			ModelCPI float64 `json:"model_cpi"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if want := len(req.Benches) * len(req.Values); len(resp.Points) != want {
		return fmt.Errorf("%d points, want %d", len(resp.Points), want)
	}
	for _, p := range resp.Points {
		if !(p.SimCPI > 0 && p.ModelCPI > 0) {
			return fmt.Errorf("point with sim CPI %v, model CPI %v", p.SimCPI, p.ModelCPI)
		}
	}
	return nil
}

// Package server implements fomodeld, the model-serving daemon: a JSON
// API over HTTP that answers first-order CPI questions interactively —
// the whole point of the paper's model being that predictions need no
// detailed simulation. The computational surface (MachineSpec, Predict)
// is shared with the command-line tools, so a server response carries
// exactly the numbers the equivalent CLI invocation prints; the HTTP
// layer adds the production shape: a canonical-request response cache on
// top of the simulator's prep cache, per-request deadlines and
// cancellation, bounded in-flight admission with 429 shedding, graceful
// drain on shutdown, structured request logs, and /metrics counters.
package server

import (
	"fmt"
	"strconv"
	"strings"

	"fomodel/internal/cache"
	"fomodel/internal/core"
	"fomodel/internal/experiments"
	"fomodel/internal/isa"
	"fomodel/internal/iw"
	"fomodel/internal/trace"
	"fomodel/internal/uarch"
)

// MachineSpec is the wire- and flag-facing description of a modeled
// machine: the paper's baseline with optional overrides. The zero value
// of every field means "baseline default", so an empty JSON object (or
// untouched CLI flags) selects the paper's machine.
type MachineSpec struct {
	// Width is the fetch/dispatch/issue/retire width (default 4).
	Width int `json:"width,omitempty"`
	// Depth is the front-end pipeline depth ΔP (default 5).
	Depth int `json:"depth,omitempty"`
	// Window is the issue-window size (default 48).
	Window int `json:"window,omitempty"`
	// ROB is the reorder-buffer size (default 128).
	ROB int `json:"rob,omitempty"`
	// Clusters partitions the issue window when > 1; Bypass is the
	// cross-cluster forwarding delay (default 1 when clustered).
	Clusters int `json:"clusters,omitempty"`
	Bypass   int `json:"bypass,omitempty"`
	// FetchBuffer adds fetch-buffer entries beyond the pipeline.
	FetchBuffer int `json:"fetch_buffer,omitempty"`
	// TLB adds the default 64-entry data TLB.
	TLB bool `json:"tlb,omitempty"`
	// FU limits per-class issue, e.g. "mul=1,load=2".
	FU string `json:"fu,omitempty"`
}

// withDefaults fills zero fields with the paper's baseline values.
func (m MachineSpec) withDefaults() MachineSpec {
	if m.Width == 0 {
		m.Width = 4
	}
	if m.Depth == 0 {
		m.Depth = 5
	}
	if m.Window == 0 {
		m.Window = 48
	}
	if m.ROB == 0 {
		m.ROB = 128
	}
	if m.Bypass == 0 {
		m.Bypass = 1
	}
	return m
}

// SimConfig builds the detailed-simulator configuration the spec
// describes: the one machine description the model's machine and the
// analysis configuration are derived from. A negative cluster count or
// bypass latency is an error, not the unified baseline.
func (m MachineSpec) SimConfig() (uarch.Config, error) {
	m = m.withDefaults()
	cfg := uarch.DefaultConfig()
	if m.Clusters < 0 {
		return cfg, fmt.Errorf("server: negative cluster count %d", m.Clusters)
	}
	if m.Bypass < 0 {
		return cfg, fmt.Errorf("server: negative bypass latency %d", m.Bypass)
	}
	cfg.Width = m.Width
	cfg.FrontEndDepth = m.Depth
	cfg.WindowSize = m.Window
	cfg.ROBSize = m.ROB
	if m.Clusters > 1 {
		cfg.Clusters = m.Clusters
		cfg.BypassLatency = m.Bypass
	}
	cfg.FetchBufferSize = m.FetchBuffer
	if m.TLB {
		t := cache.DefaultTLB()
		cfg.TLB = &t
	}
	fu, err := ParseFUCounts(m.FU)
	if err != nil {
		return cfg, err
	}
	cfg.FUCounts = fu
	return cfg, nil
}

// Machine builds the analytical-model machine the spec describes:
// experiments.ModelMachine of SimConfig.
func (m MachineSpec) Machine() (core.Machine, error) {
	cfg, err := m.SimConfig()
	if err != nil {
		return core.Machine{}, err
	}
	return experiments.ModelMachine(cfg), nil
}

// ParseFUCounts parses "class=count" pairs ("mul=1,load=2") into a
// per-class issue-limit table. Each class may appear once.
func ParseFUCounts(s string) ([isa.NumClasses]int, error) {
	var fu [isa.NumClasses]int
	if s == "" {
		return fu, nil
	}
	for _, pair := range strings.Split(s, ",") {
		name, countStr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return fu, fmt.Errorf("server: malformed FU limit %q (want class=count)", pair)
		}
		count, err := strconv.Atoi(countStr)
		if err != nil || count < 1 {
			return fu, fmt.Errorf("server: bad FU count in %q", pair)
		}
		c, ok := classByName(name)
		if !ok {
			return fu, fmt.Errorf("server: unknown instruction class %q", name)
		}
		if fu[c] != 0 {
			return fu, fmt.Errorf("server: FU limit for %s given twice", name)
		}
		fu[c] = count
	}
	return fu, nil
}

// classByName resolves an instruction class by its String name.
func classByName(name string) (isa.Class, bool) {
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if c.String() == name {
			return c, true
		}
	}
	return 0, false
}

// ParseBranchMode resolves a branch-penalty mode name.
func ParseBranchMode(s string) (core.BranchPenaltyMode, error) {
	switch s {
	case "", "midpoint":
		return core.BranchMidpoint, nil
	case "isolated":
		return core.BranchIsolated, nil
	case "measured":
		return core.BranchMeasured, nil
	}
	return 0, fmt.Errorf("server: unknown branch mode %q (want midpoint, isolated, or measured)", s)
}

// PredictRecord is one workload's full model answer: the derived inputs,
// the itemized equation-(1) CPI stack, and optionally the detailed
// simulator's CPI for validation. It is the JSON shape of both the CLI's
// -json output and the daemon's /v1/predict response.
type PredictRecord struct {
	Bench    string        `json:"bench"`
	Inputs   core.Inputs   `json:"inputs"`
	Estimate core.Estimate `json:"estimate"`
	SimCPI   *float64      `json:"sim_cpi,omitempty"`
}

// Predict runs the complete first-order pipeline for one trace on the
// machine ucfg describes: the IW characteristic and power-law fit (§3),
// the functional trace statistics under ucfg.Analysis() (§5 step 5),
// and the model composition of equation (1) on
// experiments.ModelMachine(ucfg) — plus, when withSim is set, a detailed
// simulator run for the model-error column. Simulator runs go through
// preps when non-nil, sharing classification passes across configs; a
// nil preps simulates directly. The CLI's fomodel tool calls it; the
// daemon resolves the analysis bundle through its own caches instead,
// and both compose the answer with composePredict, which is what makes
// their outputs byte-equivalent in content.
func Predict(t *trace.Trace, ucfg uarch.Config, mode core.BranchPenaltyMode,
	withSim bool, preps *uarch.PrepCache) (PredictRecord, error) {
	an, err := experiments.AnalyzeAndStore(nil, t, iw.DefaultWindows(), ucfg.Analysis())
	if err != nil {
		return PredictRecord{}, err
	}
	var simulate func() (*uarch.Result, error)
	if withSim {
		simulate = func() (*uarch.Result, error) { return preps.Simulate(t, ucfg) }
	}
	return composePredict(t.Name, an, ucfg, mode, simulate)
}

// composePredict assembles the predict record: the model half
// (AnalysisArtifact.Estimate) on an analysis bundle for the machine
// ucfg describes, plus the detailed simulator's CPI when simulate is
// non-nil.
func composePredict(bench string, an *experiments.AnalysisArtifact, ucfg uarch.Config,
	mode core.BranchPenaltyMode, simulate func() (*uarch.Result, error)) (PredictRecord, error) {
	inputs, est, err := an.Estimate(experiments.ModelMachine(ucfg), core.Options{BranchMode: mode})
	if err != nil {
		return PredictRecord{}, err
	}
	// The bundle is keyed by content, so registered names with one
	// content share it; the record names the workload it answers for.
	inputs.Name = bench
	rec := PredictRecord{Bench: bench, Inputs: inputs, Estimate: est}
	if simulate != nil {
		r, err := simulate()
		if err != nil {
			return PredictRecord{}, err
		}
		cpi := r.CPI()
		rec.SimCPI = &cpi
	}
	return rec, nil
}

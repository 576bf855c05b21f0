package experiments

import (
	"fomodel/internal/core"
	"fomodel/internal/uarch"
)

// ModelMachine projects a simulator configuration onto the analytical
// model's machine, which is the machine the paper validates eq. 1
// against (§5): the same width, depth, window, ROB, FU limits, fetch
// buffer and clusters; the hierarchy's short and long miss latencies as
// ΔI and ΔD; and the TLB's walk time, zero without a TLB. It is the one
// place a core.Machine is built from a machine description.
func ModelMachine(cfg uarch.Config) core.Machine {
	m := core.Machine{
		Width:            cfg.Width,
		FrontEndDepth:    cfg.FrontEndDepth,
		WindowSize:       cfg.WindowSize,
		ROBSize:          cfg.ROBSize,
		ShortMissLatency: cfg.Hierarchy.ShortMissLatency,
		LongMissLatency:  cfg.Hierarchy.LongMissLatency,
		FUCounts:         cfg.FUCounts,
		FetchBuffer:      cfg.FetchBufferSize,
		Clusters:         cfg.Clusters,
		BypassLatency:    cfg.BypassLatency,
	}
	if cfg.TLB != nil {
		m.TLBMissLatency = cfg.TLB.MissLatency
	}
	return m
}

// Comparison is the model and the detailed simulator at one machine
// point: the analysis the model ran on, the model's estimate and the
// simulator's result.
type Comparison struct {
	Analysis *AnalysisArtifact
	Estimate core.Estimate
	Sim      *uarch.Result
}

// Err is the model's CPI error relative to the simulator's.
func (c *Comparison) Err() float64 { return relErr(c.Estimate.CPI, c.Sim.CPI()) }

// Compare evaluates the model against the detailed simulator on w at
// one machine point: the suite's simulator configuration with mutate
// applied (nil for the baseline). The simulation goes through the prep
// cache. The model runs on ModelMachine of the point, on the analysis
// under the point's analysis configuration at the suite's ROB
// (AnalysisArtifact.Estimate regroups the misses for the point's ROB).
// A timing-only point (width, depth, window, ROB, FU limits, fetch
// buffer, clusters, ideal toggles) therefore has w's own analysis and
// needs no lookup; one that changes the predictor or the TLB reads its
// analysis through Analyze, so it is cached and stored.
func (s *Suite) Compare(w *Workload, mutate func(*uarch.Config), opts core.Options) (*Comparison, error) {
	cfg := s.Sim
	if mutate != nil {
		mutate(&cfg)
	}
	an := w.AnalysisArtifact
	scfg := cfg.Analysis()
	scfg.ROBSize = w.scfg.ROBSize
	if scfg != w.scfg {
		var err error
		if an, err = s.Analyze(w.src, scfg); err != nil {
			return nil, err
		}
	}
	sim, err := s.SimulateTrace(w.Trace, cfg)
	if err != nil {
		return nil, err
	}
	_, est, err := an.Estimate(ModelMachine(cfg), opts)
	if err != nil {
		return nil, err
	}
	return &Comparison{Analysis: an, Estimate: est, Sim: sim}, nil
}

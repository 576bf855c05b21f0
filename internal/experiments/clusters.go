package experiments

import (
	"fmt"

	"fomodel/internal/uarch"
)

// ClusterPoint is one (cluster count → CPI) sample of the §7 extension #3
// study on one benchmark.
type ClusterPoint struct {
	Bench    string
	Clusters int
	SimCPI   float64
	ModelCPI float64
	Err      float64
}

// ClusterResult sweeps cluster counts across representative benchmarks:
// partitioning costs cross-cluster bypass latency on most dependence
// edges, which the model folds into L.
type ClusterResult struct {
	Points        []ClusterPoint
	BypassLatency int
}

// ExtensionClusters validates the partitioned-window model against the
// simulator for 1, 2, and 4 clusters on three contrasting benchmarks.
func ExtensionClusters(s *Suite) (*ClusterResult, error) {
	const bypass = 1
	res := &ClusterResult{BypassLatency: bypass}
	jobs := sweepGrid([]string{"gzip", "vortex", "vpr"}, []int{1, 2, 4})
	err := RunOrdered(s.workers(), len(jobs), func(i int) (ClusterPoint, error) {
		var zero ClusterPoint
		w, err := s.Workload(jobs[i].bench)
		if err != nil {
			return zero, err
		}
		k := jobs[i].value
		c, err := s.Compare(w, func(c *uarch.Config) {
			c.Clusters = k
			c.BypassLatency = bypass
		}, modelOptions())
		if err != nil {
			return zero, err
		}
		return ClusterPoint{
			Bench:    w.Name,
			Clusters: k,
			SimCPI:   c.Sim.CPI(),
			ModelCPI: c.Estimate.CPI,
			Err:      c.Err(),
		}, nil
	}, func(_ int, pt ClusterPoint) error {
		res.Points = append(res.Points, pt)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// tab builds the result table.
func (r *ClusterResult) tab() *table {
	t := &table{
		title:  fmt.Sprintf("Extension: partitioned issue windows (bypass %d cycle)", r.BypassLatency),
		header: []string{"bench", "clusters", "model CPI", "sim CPI", "err"},
	}
	for _, p := range r.Points {
		t.addRow(p.Bench, fmt.Sprintf("%d", p.Clusters), f3(p.ModelCPI), f3(p.SimCPI), pct(p.Err))
	}
	t.addNote("partitioning trades window unification for bypass latency; the model folds the")
	t.addNote("expected (K-1)/K cross-cluster penalty into the average latency L")
	return t
}

// Render prints the table as aligned text.
func (r *ClusterResult) Render() string { return r.tab().String() }

// CSV renders the table as comma-separated values.
func (r *ClusterResult) CSV() string { return r.tab().CSV() }

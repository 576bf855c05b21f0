package experiments

import (
	"fmt"
	"math"
	"sort"
)

// SeedsResult checks that the headline Fig. 15 accuracy is a property of
// the model, not of one lucky workload draw: the whole pipeline —
// generation, analysis, model, simulation — is repeated across independent
// seeds and the spread of the mean CPI error is reported.
type SeedsResult struct {
	Seeds []uint64
	// MeanErrs[i] is the Fig. 15 mean |CPI error| under Seeds[i].
	MeanErrs []float64
	// Mean and Stddev summarize the per-seed means.
	Mean, Stddev float64
	// WorstBench counts how often each benchmark was the worst case.
	WorstBench map[string]int
}

// SeedRobustness reruns Figure 15 across five seeds.
func SeedRobustness(s *Suite) (*SeedsResult, error) {
	res := &SeedsResult{WorstBench: make(map[string]int)}
	for i := 0; i < 5; i++ {
		seed := s.Seed + uint64(i)*1000
		sub := NewSuite(s.N, seed)
		sub.Names = s.Names
		sub.Machine = s.Machine
		sub.Sim = s.Sim
		f15, err := Figure15(sub)
		if err != nil {
			return nil, err
		}
		res.Seeds = append(res.Seeds, seed)
		res.MeanErrs = append(res.MeanErrs, f15.MeanAbsErr)
		res.WorstBench[f15.WorstBench]++
	}
	var sum, sumSq float64
	for _, e := range res.MeanErrs {
		sum += e
		sumSq += e * e
	}
	n := float64(len(res.MeanErrs))
	res.Mean = sum / n
	res.Stddev = math.Sqrt(math.Max(0, sumSq/n-res.Mean*res.Mean))
	return res, nil
}

// tab builds the result table.
func (r *SeedsResult) tab() *table {
	t := &table{
		title:  "Seed robustness: Fig. 15 mean CPI error across independent workload draws",
		header: []string{"seed", "mean |err|"},
	}
	for i, seed := range r.Seeds {
		t.addRow(fmt.Sprintf("%d", seed), pct(r.MeanErrs[i]))
	}
	t.addNote("mean of means %s ± %s", pct(r.Mean), pct(r.Stddev))
	// Deterministic note order (map iteration order is randomized):
	// most-frequent worst case first, ties by name.
	benches := make([]string, 0, len(r.WorstBench))
	for bench := range r.WorstBench {
		benches = append(benches, bench)
	}
	sort.Slice(benches, func(i, j int) bool {
		if r.WorstBench[benches[i]] != r.WorstBench[benches[j]] {
			return r.WorstBench[benches[i]] > r.WorstBench[benches[j]]
		}
		return benches[i] < benches[j]
	})
	for _, bench := range benches {
		t.addNote("worst benchmark %s in %d/%d runs", bench, r.WorstBench[bench], len(r.Seeds))
	}
	return t
}

package stats

import (
	"reflect"
	"testing"

	"fomodel/internal/cache"
	"fomodel/internal/workload"
)

// TestWithROBMatchesAnalyze is the differential check behind ROB sweeps
// that regroup instead of re-analyzing: for every built-in workload,
// with and without a TLB, regrouping a 128-entry analysis for another
// ROB must give exactly what a fresh Analyze at that ROB gives, and must
// leave the analysis it was called on untouched.
func TestWithROBMatchesAnalyze(t *testing.T) {
	tlb := cache.DefaultTLB()
	regrouped := false
	for _, name := range workload.Names() {
		tr, err := workload.Generate(name, 20000, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, withTLB := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Warmup = true
			if withTLB {
				cfg.TLB = &tlb
			}
			base, err := Analyze(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, rob := range []int{1, 48, 96, 128, 256, 4096} {
				c := cfg
				c.ROBSize = rob
				want, err := Analyze(tr, c)
				if err != nil {
					t.Fatal(err)
				}
				got := base.WithROB(rob)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s tlb=%t rob=%d: WithROB differs from Analyze\ngot:  long %v tlb %v\nwant: long %v tlb %v",
						name, withTLB, rob, got.LongMissGroups, got.TLBMissGroups, want.LongMissGroups, want.TLBMissGroups)
				}
				if !reflect.DeepEqual(want.LongMissGroups, base.LongMissGroups) {
					regrouped = true
				}
			}
			if fresh, _ := Analyze(tr, cfg); !reflect.DeepEqual(base, fresh) {
				t.Errorf("%s tlb=%t: WithROB modified the summary it was called on", name, withTLB)
			}
		}
	}
	if !regrouped {
		t.Error("no ROB size changed any workload's long-miss grouping; the check is vacuous")
	}
}

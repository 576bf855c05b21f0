package uarch

import (
	"reflect"
	"testing"

	"fomodel/internal/cache"
	"fomodel/internal/isa"
	"fomodel/internal/predictor"
	"fomodel/internal/stats"
)

// TestAnalysisSetsEveryField guards the one machine-to-analysis
// projection: every Config field with an analysis counterpart gets a
// distinct non-default value, and every field of Analysis's result
// must be set from it. A new stats.Config field fails the test until
// Analysis sets it.
func TestAnalysisSetsEveryField(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hierarchy.L2.SizeBytes = 1 << 20
	cfg.Hierarchy.ShortMissLatency = 11
	cfg.PredictorBits = 10
	spec := predictor.Spec{Kind: predictor.KindBimodal, IndexBits: 9}
	cfg.Predictor = &spec
	cfg.Latencies[isa.Mul] = 5
	cfg.ROBSize = 96
	tlb := cache.TLBConfig{Entries: 32, PageBytes: 8192, MissLatency: 55}
	cfg.TLB = &tlb
	cfg.Warmup = true

	want := stats.Config{
		Hierarchy:     cfg.Hierarchy,
		PredictorBits: 10,
		Predictor:     &spec,
		Latencies:     cfg.Latencies,
		ROBSize:       96,
		TLB:           &tlb,
		Warmup:        true,
	}
	got := cfg.Analysis()
	if got != want {
		t.Errorf("Analysis = %+v, want %+v", got, want)
	}
	v := reflect.ValueOf(got)
	for i := range v.NumField() {
		if v.Field(i).IsZero() {
			t.Errorf("stats.Config.%s is not set from the machine configuration", v.Type().Field(i).Name)
		}
	}

	base := DefaultConfig().Analysis()
	wantBase := stats.DefaultConfig()
	wantBase.Warmup = true
	if base != wantBase {
		t.Errorf("DefaultConfig().Analysis() = %+v, want the analysis default with warm-up %+v", base, wantBase)
	}
}

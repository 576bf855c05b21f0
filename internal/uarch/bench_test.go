package uarch_test

import (
	"sync"
	"testing"

	"fomodel/internal/trace"
	"fomodel/internal/uarch"
	"fomodel/internal/workload"
)

// benchTrace is shared across benchmarks so trace generation is paid once.
var (
	benchTraceOnce sync.Once
	benchTraceVal  *trace.Trace
)

func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	benchTraceOnce.Do(func() {
		t, err := workload.Generate("gzip", 50000, 1)
		if err != nil {
			panic(err)
		}
		benchTraceVal = t
	})
	return benchTraceVal
}

// BenchmarkSimulate times one full uncached simulation: functional
// classification plus the cycle-level timing pass.
func BenchmarkSimulate(b *testing.B) {
	t := benchTrace(b)
	cfg := uarch.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := uarch.Simulate(t, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepCacheHit times a simulation whose classification is served
// from a warm PrepCache — the steady state of every multi-config study.
// The delta against BenchmarkSimulate is the cost of the functional pass
// the cache removes.
func BenchmarkPrepCacheHit(b *testing.B) {
	t := benchTrace(b)
	cfg := uarch.DefaultConfig()
	pc := uarch.NewPrepCache()
	if _, err := pc.Simulate(t, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pc.Simulate(t, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepCacheMiss times a simulation through a cold cache (a fresh
// cache per iteration), measuring the overhead the cache layer adds on
// the first run of a new classification key.
func BenchmarkPrepCacheMiss(b *testing.B) {
	t := benchTrace(b)
	cfg := uarch.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uarch.NewPrepCache()
		if _, err := pc.Simulate(t, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateIdealSweep mimics the paper's five-configuration
// independence experiment on one benchmark: same classification key,
// five timing variants. With the cache this pays one functional pass;
// uncached it would pay five.
func BenchmarkSimulateIdealSweep(b *testing.B) {
	t := benchTrace(b)
	base := uarch.DefaultConfig()
	variants := make([]uarch.Config, 0, 5)
	for _, m := range []func(*uarch.Config){
		func(c *uarch.Config) { c.IdealICache, c.IdealDCache, c.IdealPredictor = true, true, true },
		func(c *uarch.Config) { c.IdealICache, c.IdealDCache = true, true },
		func(c *uarch.Config) { c.IdealDCache, c.IdealPredictor = true, true },
		func(c *uarch.Config) { c.IdealICache, c.IdealPredictor = true, true },
		func(c *uarch.Config) {},
	} {
		cfg := base
		m(&cfg)
		variants = append(variants, cfg)
	}
	pc := uarch.NewPrepCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range variants {
			if _, err := pc.Simulate(t, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRunConfigs times the timing pass alone — classification is
// served from a warm PrepCache — at 100k instructions for three
// benchmarks under nine machines: the baseline, widths 1 and 8, windows
// of 8 and 128 entries, a 256-entry ROB, in-order issue, two clusters,
// and serialized long misses, the one option that copies the events
// before the pass (stats.IsolateLongMisses). Widths 1 and 8 and windows
// 8 and 128 are the ends of the ranges a served sweep draws from; at
// width 1 the issue stage passes over the most full cycles. The
// benchmarks span the simulator's regimes (mcf stalls on long misses,
// vortex and gzip keep the window busy), so a slowdown confined to one
// regime shows up in its own row.
func BenchmarkRunConfigs(b *testing.B) {
	configs := []struct {
		name   string
		mutate func(*uarch.Config)
	}{
		{"base", func(*uarch.Config) {}},
		{"width1", func(c *uarch.Config) { c.Width = 1 }},
		{"width8", func(c *uarch.Config) { c.Width = 8 }},
		{"window8", func(c *uarch.Config) { c.WindowSize = 8 }},
		{"window128", func(c *uarch.Config) { c.WindowSize = 128 }},
		{"rob256", func(c *uarch.Config) { c.ROBSize = 256 }},
		{"inorder", func(c *uarch.Config) { c.InOrder = true }},
		{"clusters2", func(c *uarch.Config) { c.Clusters, c.BypassLatency = 2, 1 }},
		{"serialize", func(c *uarch.Config) { c.SerializeLongMisses = true }},
	}
	for _, bench := range []string{"mcf", "vortex", "gzip"} {
		t, err := workload.Generate(bench, 100000, 1)
		if err != nil {
			b.Fatal(err)
		}
		pc := uarch.NewPrepCache()
		for _, c := range configs {
			cfg := uarch.DefaultConfig()
			c.mutate(&cfg)
			b.Run(bench+"/"+c.name, func(b *testing.B) {
				if _, err := pc.Simulate(t, cfg); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pc.Simulate(t, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

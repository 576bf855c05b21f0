package workload

import (
	"testing"

	"fomodel/internal/trace"
)

var benchSink *trace.Trace

// BenchmarkGenerate measures trace synthesis at the daemon's default
// size, rotating over the built-in profiles and seeds so no single
// profile's block structure dominates.
func BenchmarkGenerate(b *testing.B) {
	const n = 100000
	profiles := Profiles()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := profiles[i%len(profiles)]
		t, err := Generate(p.Name, n, uint64(1+i/len(profiles)))
		if err != nil {
			b.Fatal(err)
		}
		benchSink = t
	}
}

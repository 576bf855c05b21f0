package trace_test

import (
	"testing"

	"fomodel/internal/trace"
	"fomodel/internal/workload"
)

var encodeSink []byte

// BenchmarkEncode measures encoding a trace of the daemon's default
// size, the payload of every cold predict's trace store write.
func BenchmarkEncode(b *testing.B) {
	t, err := workload.Generate("gzip", 100000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := trace.Encode(t)
		if err != nil {
			b.Fatal(err)
		}
		encodeSink = buf
	}
}

package iw_test

import (
	"testing"

	"fomodel/internal/isa"
	"fomodel/internal/iw"
	"fomodel/internal/trace"
	"fomodel/internal/workload"
)

var (
	benchTraces = map[int]*trace.Trace{}
	benchSink   []iw.Point
)

// benchTrace returns the gzip trace of n instructions (seed 1), generated
// once per size. Benchmarks run one at a time, so the map needs no lock.
func benchTrace(b *testing.B, n int) *trace.Trace {
	b.Helper()
	if t := benchTraces[n]; t != nil {
		return t
	}
	t, err := workload.Generate("gzip", n, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchTraces[n] = t
	return t
}

func benchCharacteristic(b *testing.B, t *trace.Trace, windows []int, opts iw.Options) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := iw.Characteristic(t, windows, opts)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = pts
	}
}

// BenchmarkCharacteristic times the full six-window IW sweep.
func BenchmarkCharacteristic(b *testing.B) {
	benchCharacteristic(b, benchTrace(b, 50000), iw.DefaultWindows(), iw.Options{})
}

// BenchmarkCharacteristicServed times the sweep a cold /v1/predict runs:
// fomodeld's default trace length of 100000 instructions.
func BenchmarkCharacteristicServed(b *testing.B) {
	benchCharacteristic(b, benchTrace(b, 100000), iw.DefaultWindows(), iw.Options{})
}

// BenchmarkCharacteristicWidthLatency times a width-capped sweep over
// Figure 6's windows with the default latency table, covering the
// issue-width search and the non-unit finish times of the Figure 6 and
// baseline paths.
func BenchmarkCharacteristicWidthLatency(b *testing.B) {
	lat := isa.DefaultLatencies()
	benchCharacteristic(b, benchTrace(b, 100000), []int{2, 4, 8, 16, 32, 64, 128},
		iw.Options{IssueWidth: 4, Latencies: &lat})
}

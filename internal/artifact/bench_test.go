package artifact

import (
	"fmt"
	"testing"
)

// fillToBound writes payload under fresh keys until the store's first
// eviction, as cold-model's store is once it runs, and returns the next
// key index.
func fillToBound(b *testing.B, s *Store, payload []byte) int {
	b.Helper()
	i := 0
	for ; ; i++ {
		if _, _, _, _, ev := s.Stats(); ev > 0 {
			return i
		}
		if err := s.Put("trace", fmt.Sprint("fill-", i), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorePutAtBound times one Put into a store held at its size
// bound: ~107 trace-sized files (cold-model's store before model-only
// traces stopped being written) and ~10k analysis-sized files (what it
// fills with now).
func BenchmarkStorePutAtBound(b *testing.B) {
	for _, c := range []struct {
		name    string
		payload int
		files   int64
	}{
		{"traces-107x2.4MB", 2_400_000, 107},
		{"analyses-10kx12KB", 12_000, 10_000},
	} {
		b.Run(c.name, func(b *testing.B) {
			payload := make([]byte, c.payload)
			s, err := Open(b.TempDir(), c.files*int64(c.payload+100))
			if err != nil {
				b.Fatal(err)
			}
			next := fillToBound(b, s, payload)
			b.SetBytes(int64(c.payload))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put("trace", fmt.Sprint("fill-", next+i), payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreGetHit times a verified Get of an analysis-sized
// artifact, fleet-store's store read.
func BenchmarkStoreGetHit(b *testing.B) {
	s, err := Open(b.TempDir(), 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Put("analysis", fmt.Sprint("key-", i), make([]byte, 12_000)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get("analysis", fmt.Sprint("key-", i%100)); !ok {
			b.Fatal("miss")
		}
	}
}

package artifact

import (
	"bytes"
	"testing"
)

// FuzzStoreRoundTrip hardens the FOA framing: a freshly encoded
// artifact must decode back to its exact payload, and any truncation or
// single-byte corruption — magic, version bump, key length, key bytes,
// payload length, payload bytes, or checksum — must come back as a
// clean error (a cache miss at the store layer), never a panic and
// never a silently different payload.
func FuzzStoreRoundTrip(f *testing.F) {
	f.Add("predict", "key", []byte("payload"), uint8(0), 0)
	f.Add("sweep", "", []byte{}, uint8(1), 3)
	f.Add("predict", "k\x00k", []byte("x"), uint8(0xff), 4) // pos 4 = format version
	f.Add("p", "key", bytes.Repeat([]byte{0xaa}, 100), uint8(7), 90)

	f.Fuzz(func(t *testing.T, kind, key string, payload []byte, mutate uint8, pos int) {
		full := fullKey(kind, key)
		header, trailer := frame(full, payload)
		data := append(append(header, payload...), trailer[:]...)

		got, err := decodeFile(data, full)
		if err != nil {
			t.Fatalf("freshly encoded artifact rejected: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round-trip changed the payload: %q -> %q", payload, got)
		}

		if pos < 0 {
			pos = -pos
		}
		i := pos % len(data)
		m := append([]byte(nil), data...)
		if mutate == 0 {
			// Truncation: every length field is checked exactly, so any
			// proper prefix must be rejected.
			m = m[:i]
		} else {
			// Corruption: every byte of the frame is covered by magic,
			// version, length, key, or checksum validation, so any
			// single-byte flip must be rejected.
			m[i] ^= mutate
		}
		if _, err := decodeFile(m, full); err == nil {
			t.Fatalf("corrupted frame accepted (pos %d, xor %#x)", i, mutate)
		}
	})
}

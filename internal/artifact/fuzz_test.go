package artifact

import (
	"bytes"
	"os"
	"path/filepath"
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

// FuzzStoreOps runs random operation sequences against a bounded store
// and a map model of what was last put under each key. Each pair of
// input bytes is one operation: Put (a random size), Get, corrupting a
// file in place, deleting a file behind the store's back, or reopening
// the store. After every operation the index must match the directory:
// every file is indexed with its size, an indexed file is missing only
// if it was deleted externally, and the index total is the sum of its
// entries. After every Put the directory fits the bound, and a Get
// returns the last payload put under its key or misses.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 3, 0, 200, 1, 3, 2, 3, 1, 3, 4, 0, 1, 200})
	f.Add([]byte{0, 1, 0, 9, 0, 17, 0, 25, 3, 1, 0, 33, 0, 41, 1, 9})
	f.Add(bytes.Repeat([]byte{0, 255, 0, 254, 1, 255, 3, 254, 4, 0}, 8))

	const bound = 4096
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 400 {
			ops = ops[:400]
		}
		dir := t.TempDir()
		reopen := func() *Store {
			s, err := Open(dir, bound)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		s := reopen()
		model := map[string][]byte{}
		deleted := map[string]bool{} // file names removed behind the store's back
		fileOf := func(key string) string {
			return filepath.Join(dir, fileName("trace", fullKey("trace", key)))
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%5, ops[i+1]
			key := string(rune('a' + arg%8))
			switch op {
			case 0: // Put
				payload := bytes.Repeat([]byte{arg, byte(i)}, int(arg/8)*47/2)
				if err := s.Put("trace", key, payload); err != nil {
					t.Fatal(err)
				}
				model[key] = payload
				delete(deleted, filepath.Base(fileOf(key)))
				if got := dirBytes(t, dir); got > bound {
					t.Fatalf("op %d: directory holds %d bytes, bound %d", i, got, bound)
				}
			case 1: // Get
				if got, ok := s.Get("trace", key); ok && !bytes.Equal(got, model[key]) {
					t.Fatalf("op %d: Get(%s) returned a payload that is not the last one put", i, key)
				}
			case 2: // corrupt in place
				if data, err := os.ReadFile(fileOf(key)); err == nil && len(data) > 0 {
					data[int(arg)%len(data)] ^= 0x5a
					if err := os.WriteFile(fileOf(key), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			case 3: // delete behind the store's back
				if os.Remove(fileOf(key)) == nil {
					deleted[filepath.Base(fileOf(key))] = true
				}
			case 4: // reopen
				s = reopen()
				clear(deleted)
			}
			checkIndex(t, s, deleted)
		}
	})
}

// checkIndex compares the store's index with its directory.
func checkIndex(t *testing.T, s *Store, deleted map[string]bool) {
	t.Helper()
	files, err := osFS{}.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	onDisk := map[string]bool{}
	for _, f := range files {
		onDisk[f.name] = true
		if e, ok := s.idx.files[f.name]; !ok || e.size != f.size {
			t.Fatalf("file %s (%d bytes) is not indexed with its size", f.name, f.size)
		}
	}
	var sum int64
	for name, e := range s.idx.files {
		sum += e.size
		if !onDisk[name] && !deleted[name] {
			t.Fatalf("indexed file %s is missing but was never deleted externally", name)
		}
	}
	if sum != s.idx.total {
		t.Fatalf("index total %d, entries sum to %d", s.idx.total, sum)
	}
}

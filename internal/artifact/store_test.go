package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func open(t *testing.T, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := open(t, 0)
	payload := []byte("the artifact payload \x00 with binary bytes \xff")
	if err := s.Put("trace", "gzip|n=1000|seed=7", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("trace", "gzip|n=1000|seed=7")
	if !ok {
		t.Fatal("Get missed a just-written artifact")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %q want %q", got, payload)
	}
	hits, misses, corrupt, writes, _ := s.Stats()
	if hits != 1 || misses != 0 || corrupt != 0 || writes != 1 {
		t.Errorf("stats = (hits %d, misses %d, corrupt %d, writes %d)", hits, misses, corrupt, writes)
	}
}

// TestPutFileBytes pins the on-disk frame byte for byte: Put streams
// header, payload and trailer separately, and the file they make must
// be exactly the documented format.
func TestPutFileBytes(t *testing.T) {
	s := open(t, 0)
	if err := s.Put("k", "x", []byte("ab")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(artifactFile(t, s))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("FOAS" +
		"\x01\x00\x00\x00" + // FormatVersion
		"\x03\x00\x00\x00" + "k\x00x" + // key length, "<kind>\x00<key>"
		"\x02\x00\x00\x00\x00\x00\x00\x00" + "ab" + // payload length, payload
		"\x6d\x48\x83\x9e") // CRC-32 (IEEE) of "ab", little-endian
	if !bytes.Equal(got, want) {
		t.Fatalf("artifact file\n got %q\nwant %q", got, want)
	}
}

func TestMissOnAbsentAndWrongKind(t *testing.T) {
	s := open(t, 0)
	if _, ok := s.Get("trace", "nope"); ok {
		t.Error("Get hit on an empty store")
	}
	s.Put("trace", "k", []byte("x"))
	if _, ok := s.Get("preps", "k"); ok {
		t.Error("kinds share a namespace")
	}
}

// artifactFile returns the single artifact file in the store directory.
func artifactFile(t *testing.T, s *Store) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(s.Dir(), "*.foa"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one artifact file, have %v (err %v)", matches, err)
	}
	return matches[0]
}

func TestCorruptedPayloadDetected(t *testing.T) {
	s := open(t, 0)
	s.Put("preps", "key", []byte("some payload bytes"))
	path := artifactFile(t, s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xff // flip a payload byte under the checksum
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("preps", "key"); ok {
		t.Fatal("corrupted artifact served")
	}
	if _, _, corrupt, _, _ := s.Stats(); corrupt != 1 {
		t.Errorf("corrupt count = %d, want 1", corrupt)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupted artifact not deleted")
	}
}

func TestTruncatedFileDetected(t *testing.T) {
	s := open(t, 0)
	s.Put("preps", "key", []byte("some payload bytes"))
	path := artifactFile(t, s)
	data, _ := os.ReadFile(path)
	for _, cut := range []int{0, 3, 11, len(data) / 2, len(data) - 1} {
		os.WriteFile(path, data[:cut], 0o644)
		if _, ok := s.Get("preps", "key"); ok {
			t.Fatalf("truncated artifact (%d bytes) served", cut)
		}
	}
}

func TestVersionBumpInvalidates(t *testing.T) {
	s := open(t, 0)
	s.Put("iw", "key", []byte("fitted curve"))
	path := artifactFile(t, s)
	data, _ := os.ReadFile(path)
	// Rewrite the version field: a file written by any other format
	// version must read as a miss, not as a payload.
	binary.LittleEndian.PutUint32(data[4:8], FormatVersion+1)
	os.WriteFile(path, data, 0o644)
	if _, ok := s.Get("iw", "key"); ok {
		t.Fatal("artifact from a different format version served")
	}
	// The stale file is deleted, so a re-Put re-establishes the entry.
	s.Put("iw", "key", []byte("fitted curve v2"))
	got, ok := s.Get("iw", "key")
	if !ok || string(got) != "fitted curve v2" {
		t.Fatalf("re-put after invalidation failed: %q %v", got, ok)
	}
}

func TestKeyMismatchDetected(t *testing.T) {
	s := open(t, 0)
	s.Put("trace", "key-a", []byte("payload"))
	src := artifactFile(t, s)
	// Simulate a filename collision: key-b's slot holds key-a's file.
	data, _ := os.ReadFile(src)
	os.WriteFile(filepath.Join(s.Dir(), fileName("trace", fullKey("trace", "key-b"))), data, 0o644)
	if _, ok := s.Get("trace", "key-b"); ok {
		t.Fatal("artifact with a mismatched embedded key served")
	}
}

func TestSizeBoundEvictsOldest(t *testing.T) {
	s := open(t, 600)
	payload := make([]byte, 100)
	s.Put("trace", "oldest", payload)
	// Backdate the first artifact so eviction order is unambiguous even
	// on coarse-mtime filesystems.
	old := artifactFile(t, s)
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(old, past, past); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Put("trace", string(rune('a'+i)), payload)
	}
	if size := s.SizeBytes(); size > 600 {
		t.Errorf("store size %d exceeds the 600-byte bound", size)
	}
	_, _, _, _, evictions := s.Stats()
	if evictions == 0 {
		t.Error("no evictions recorded despite exceeding the bound")
	}
	if _, ok := s.Get("trace", "oldest"); ok {
		t.Error("oldest artifact survived eviction")
	}
}

// TestGetRefreshesEvictionRecency is the regression test for eviction
// being insertion-order FIFO instead of the documented mtime order: a
// hot artifact written early must outlive a cold one written later.
func TestGetRefreshesEvictionRecency(t *testing.T) {
	s := open(t, 600)
	s.Put("trace", "hot", make([]byte, 100))
	hot := artifactFile(t, s)
	s.Put("trace", "cold", make([]byte, 300))
	// Backdate both entries, "hot" strictly oldest, so without the hit's
	// mtime bump it is unambiguously the eviction victim — and the bump
	// itself is visible even on coarse-mtime filesystems.
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(hot, past.Add(-time.Minute), past.Add(-time.Minute)); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(s.Dir(), "*.foa"))
	if len(matches) != 2 {
		t.Fatalf("want two artifact files, have %v", matches)
	}
	for _, m := range matches {
		if m == hot {
			continue
		}
		if err := os.Chtimes(m, past, past); err != nil {
			t.Fatal(err)
		}
	}
	// The verified hit must refresh "hot" to now; the next Put overflows
	// the bound by one file's worth, so exactly the stalest entry goes.
	if _, ok := s.Get("trace", "hot"); !ok {
		t.Fatal("hot artifact missing before eviction")
	}
	s.Put("trace", "filler", make([]byte, 100))
	if _, ok := s.Get("trace", "hot"); !ok {
		t.Error("recently-read artifact evicted before an untouched newer one")
	}
	if _, ok := s.Get("trace", "cold"); ok {
		t.Error("untouched artifact survived eviction ahead of a recently-read one")
	}
	if _, ok := s.Get("trace", "filler"); !ok {
		t.Error("just-written artifact evicted")
	}
}

func TestNilStoreIsDisabled(t *testing.T) {
	var s *Store
	if err := s.Put("trace", "k", []byte("x")); err != nil {
		t.Errorf("nil Put errored: %v", err)
	}
	if _, ok := s.Get("trace", "k"); ok {
		t.Error("nil Get hit")
	}
	if s.SizeBytes() != 0 || s.Dir() != "" {
		t.Error("nil accessors not zero")
	}
}

// binPayload is a minimal encoding.BinaryMarshaler for the codec
// wrappers.
type binPayload struct{ b []byte }

func (p *binPayload) MarshalBinary() ([]byte, error) { return append([]byte(nil), p.b...), nil }

func (p *binPayload) UnmarshalBinary(b []byte) error {
	if len(b) == 0 {
		return errors.New("empty")
	}
	p.b = append([]byte(nil), b...)
	return nil
}

// TestGobRoundTrip pins the two gob-named wrappers to the value's own
// binary codec: they round-trip through MarshalBinary/UnmarshalBinary,
// pass its errors on, and reject a value without the methods instead of
// falling back to another encoding.
func TestGobRoundTrip(t *testing.T) {
	in := &binPayload{b: []byte("FOA2 payload")}
	b, err := EncodeGob(in)
	if err != nil {
		t.Fatal(err)
	}
	var out binPayload
	if err := DecodeGob(b, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.b, in.b) {
		t.Errorf("round trip mismatch: %q -> %q", in.b, out.b)
	}
	if err := DecodeGob(nil, &out); err == nil {
		t.Error("UnmarshalBinary's error was dropped")
	}
	plain := struct{ F float64 }{0.3}
	if _, err := EncodeGob(plain); err == nil {
		t.Error("value without MarshalBinary encoded")
	}
	if err := DecodeGob(b, &plain); err == nil {
		t.Error("value without UnmarshalBinary decoded")
	}
}

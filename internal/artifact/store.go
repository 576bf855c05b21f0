// Package artifact implements the persistent workload-artifact store:
// a directory of checksummed, versioned files holding the expensive
// per-benchmark preparation products (serialized traces, classification
// preps, IW characteristic fits and miss statistics),
// keyed by *content* — the generation recipe and the configuration
// projection that determines the artifact — never by in-memory identity.
//
// The store is what lets a freshly started fomodeld answer cache-cold
// requests at close to cache-hot speed: artifacts survive restarts and
// are shared across processes, so the daemon re-reads a few hundred
// kilobytes instead of regenerating a trace and re-running functional
// classification passes.
//
// Every artifact file is self-describing and self-verifying:
//
//	magic    [4]byte  "FOAS"
//	version  uint32   store format version (FormatVersion)
//	keyLen   uint32   length of the full content key
//	key      []byte   "<kind>\x00<key>" — verified on read
//	payLen   uint64   payload length
//	payload  []byte
//	crc      uint32   IEEE CRC-32 of the payload
//
// All integers are little-endian. A reader rejects (and deletes) any
// file whose magic, version, embedded key, length, or checksum does not
// match — a corrupted, truncated, stale-version, or hash-colliding file
// is reported as a miss and the artifact is recomputed, never served.
// Writes go to a temporary file in the same directory and are renamed
// into place, so a crash mid-write can never leave a half-written file
// under an artifact's name.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fomodel/internal/metrics"
)

// FormatVersion is the on-disk format version. Bumping it invalidates
// every existing artifact: readers reject files written under any other
// version, so a format change degrades to recomputation, never to
// misinterpreted bytes.
const FormatVersion = 1

var storeMagic = [4]byte{'F', 'O', 'A', 'S'}

// maxKeyBytes bounds the embedded key; content keys are short
// human-readable strings, so anything larger is corruption.
const maxKeyBytes = 1 << 16

// maxPayloadBytes bounds a single artifact payload (a 5M-instruction
// trace is ~120 MB; this leaves headroom without trusting a forged
// length field to allocate arbitrarily).
const maxPayloadBytes = 1 << 30

// reconcileDivisor sets how often a bounded store rescans its
// directory: once per maxBytes/reconcileDivisor bytes it writes. Other
// processes sharing the directory write files this Store's index does
// not hold, so with k processes the directory can exceed maxBytes by at
// most (k-1)·maxBytes/reconcileDivisor between scans (DESIGN.md §6c).
const reconcileDivisor = 8

// Store is a content-keyed artifact directory. The zero value is not
// usable; call Open. A nil *Store is valid and disables persistence:
// Get always misses and Put discards.
type Store struct {
	dir      string
	maxBytes int64
	fsys     fileSystem

	// mu guards idx and sinceScan and is never held across file I/O:
	// reads and writes of individual artifacts need no lock (rename is
	// atomic, partially evicted reads degrade to misses), and eviction
	// and rescans update the index before or after their syscalls.
	mu        sync.Mutex
	idx       *index
	sinceScan int64 // bytes this Store has written since its last directory scan

	hits, misses, corrupt, writes, evictions, putErrors metrics.Counter
}

// Open prepares the store rooted at dir, creating it when absent, and
// indexes the files already there with one directory scan. maxBytes
// bounds the store's total size: after each write, the least-recently-
// used artifacts are evicted until the total is under the bound again.
// Zero means unbounded.
func Open(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return openFS(osFS{}, dir, maxBytes)
}

// openFS is Open over an explicit file system.
func openFS(fsys fileSystem, dir string, maxBytes int64) (*Store, error) {
	files, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return &Store{dir: dir, maxBytes: maxBytes, fsys: fsys, idx: newIndex(files)}, nil
}

// Dir returns the store's root directory; empty on a nil store.
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// fullKey is the namespaced content key embedded in (and verified
// against) every artifact file.
func fullKey(kind, key string) string { return kind + "\x00" + key }

// fileName maps a kind and its full key to the artifact's file name: the
// kind plus a SHA-256 of the full key, so arbitrary key strings never
// meet the filesystem and two kinds can never collide.
func fileName(kind, full string) string {
	sum := sha256.Sum256([]byte(full))
	return kind + "-" + hex.EncodeToString(sum[:]) + ".foa"
}

// Get returns the payload stored under (kind, key), or ok=false when the
// store has no valid artifact for it. Any structurally invalid file —
// truncated, checksum mismatch, wrong format version, or a key collision
// — is deleted and reported as a miss, so a damaged store heals itself
// through recomputation.
func (s *Store) Get(kind, key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	full := fullKey(kind, key)
	name := fileName(kind, full)
	path := filepath.Join(s.dir, name)
	data, err := s.fsys.ReadFile(path)
	if err != nil {
		s.misses.Inc()
		return nil, false
	}
	payload, err := decodeFile(data, full)
	if err != nil {
		// Invalid on disk: delete so the slot is rewritten cleanly.
		s.corrupt.Inc()
		s.misses.Inc()
		if err := s.fsys.Remove(path); err == nil || errors.Is(err, fs.ErrNotExist) {
			s.mu.Lock()
			s.idx.drop(name)
			s.mu.Unlock()
		}
		return nil, false
	}
	s.hits.Inc()
	// Eviction is least-recently-used: a verified hit moves the file to
	// most recent in the index, and its mtime bump carries that order
	// across restarts, whose index is built in mtime order.
	now := time.Now()
	//folint:allow(errdrop) best-effort recency bump; a failed Chtimes only weakens eviction ordering after a restart
	s.fsys.Chtimes(path, now, now)
	s.mu.Lock()
	s.idx.touch(name)
	s.mu.Unlock()
	return payload, true
}

// Put stores payload under (kind, key), atomically replacing any
// previous artifact, then evicts least-recently-used artifacts while the
// store exceeds its size bound. Put failures are returned (and counted,
// see PutErrors) but are always safe to ignore: the store is a cache,
// and a failed write only costs a future recomputation. A failed Put
// leaves no temp file behind, as far as the file system allows, and no
// index entry.
func (s *Store) Put(kind, key string, payload []byte) error {
	if s == nil {
		return nil
	}
	if err := s.put(kind, key, payload); err != nil {
		s.putErrors.Inc()
		return err
	}
	return nil
}

func (s *Store) put(kind, key string, payload []byte) error {
	full := fullKey(kind, key)
	header, trailer := frame(full, payload)
	tmp, err := s.fsys.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	// Stream the frame's three parts: a payload can be a multi-megabyte
	// trace, and copying it into one frame buffer would double its cost.
	werr := writeAll(tmp, header)
	if werr == nil {
		werr = writeAll(tmp, payload)
	}
	if werr == nil {
		werr = writeAll(tmp, trailer[:])
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		//folint:allow(errdrop) cleanup of the temp file after a failed write; the write error is what the caller sees
		s.fsys.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("artifact: write %s: %w", kind, werr)
	}
	name := fileName(kind, full)
	if err := s.fsys.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		//folint:allow(errdrop) cleanup of the temp file after a failed rename; the rename error is what the caller sees
		s.fsys.Remove(tmp.Name())
		return fmt.Errorf("artifact: %w", err)
	}
	s.writes.Inc()
	size := int64(len(header) + len(payload) + len(trailer))
	s.mu.Lock()
	s.idx.add(name, size)
	s.sinceScan += size
	rescan := s.maxBytes > 0 && s.sinceScan >= s.maxBytes/reconcileDivisor
	if rescan {
		s.sinceScan = 0
	}
	s.mu.Unlock()
	if rescan {
		s.reconcile()
	}
	s.evict()
	return nil
}

// writeAll writes b to w, turning a short write that reports no error
// into io.ErrShortWrite.
func writeAll(w io.Writer, b []byte) error {
	n, err := w.Write(b)
	if err == nil && n != len(b) {
		err = io.ErrShortWrite
	}
	return err
}

// frame returns the header and the checksum trailer that enclose
// payload in the on-disk format.
func frame(key string, payload []byte) (header []byte, trailer [4]byte) {
	header = make([]byte, 0, 4+4+4+len(key)+8)
	header = append(header, storeMagic[:]...)
	header = binary.LittleEndian.AppendUint32(header, FormatVersion)
	header = binary.LittleEndian.AppendUint32(header, uint32(len(key)))
	header = append(header, key...)
	header = binary.LittleEndian.AppendUint64(header, uint64(len(payload)))
	binary.LittleEndian.PutUint32(trailer[:], crc32.ChecksumIEEE(payload))
	return header, trailer
}

// decodeFile validates every field of an artifact file against the
// expected full key and returns the payload.
func decodeFile(data []byte, wantKey string) ([]byte, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("artifact: truncated header")
	}
	if [4]byte(data[:4]) != storeMagic {
		return nil, fmt.Errorf("artifact: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != FormatVersion {
		return nil, fmt.Errorf("artifact: format version %d, want %d", v, FormatVersion)
	}
	keyLen := binary.LittleEndian.Uint32(data[8:12])
	if keyLen > maxKeyBytes || len(data) < 12+int(keyLen)+8 {
		return nil, fmt.Errorf("artifact: truncated key")
	}
	if string(data[12:12+keyLen]) != wantKey {
		return nil, fmt.Errorf("artifact: key mismatch")
	}
	rest := data[12+keyLen:]
	payLen := binary.LittleEndian.Uint64(rest[:8])
	if payLen > maxPayloadBytes || uint64(len(rest)) != 8+payLen+4 {
		return nil, fmt.Errorf("artifact: truncated payload")
	}
	payload := rest[8 : 8+payLen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[8+payLen:]) {
		return nil, fmt.Errorf("artifact: checksum mismatch")
	}
	return payload, nil
}

// reconcile replaces the index with a fresh scan of the directory,
// picking up files that other processes sharing it wrote or deleted. A
// failed scan keeps the current index. A file this Store renames into
// place while the scan runs may miss the new index until the next scan,
// like another process's write.
func (s *Store) reconcile() {
	files, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return
	}
	idx := newIndex(files)
	s.mu.Lock()
	s.idx = idx
	s.mu.Unlock()
}

// evict removes least-recently-used artifacts until the index total fits
// the size bound. A victim already gone (deleted behind the index's
// back) is dropped without counting as an eviction. A victim that cannot
// be removed stays counted, as most recent so that one undeletable file
// cannot stall eviction, and this round stops; the next Put retries.
// A scan counts temp files like any other file, so in a store that
// turns over faster than one write completes, an in-flight Put's temp
// file can be the victim; that Put then fails, and only its write is
// lost.
func (s *Store) evict() {
	if s.maxBytes <= 0 {
		return
	}
	for {
		s.mu.Lock()
		var victim *indexEntry
		if s.idx.total > s.maxBytes {
			victim = s.idx.popOldest()
		}
		s.mu.Unlock()
		if victim == nil {
			return
		}
		err := s.fsys.Remove(filepath.Join(s.dir, victim.name))
		switch {
		case err == nil:
			s.evictions.Inc()
		case errors.Is(err, fs.ErrNotExist):
		default:
			s.mu.Lock()
			if _, ok := s.idx.files[victim.name]; !ok {
				s.idx.add(victim.name, victim.size)
			}
			s.mu.Unlock()
			return
		}
	}
}

// SizeBytes reports the store's size as its index holds it: the
// directory's bytes at the last scan, plus what this Store has written
// and minus what it has removed since; zero on a nil store.
func (s *Store) SizeBytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.total
}

// PutErrors reports how many Puts failed (a full or read-only disk, say);
// zero on a nil store.
func (s *Store) PutErrors() int64 {
	if s == nil {
		return 0
	}
	return s.putErrors.Load()
}

// Stats reports the store's hit/miss/corrupt/write/eviction counts; all
// zero on a nil store.
func (s *Store) Stats() (hits, misses, corrupt, writes, evictions int64) {
	if s == nil {
		return 0, 0, 0, 0, 0
	}
	return s.hits.Load(), s.misses.Load(), s.corrupt.Load(),
		s.writes.Load(), s.evictions.Load()
}

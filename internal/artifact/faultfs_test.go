package artifact

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// errShort is the sentinel an injector returns for "write": the write
// stores half its bytes and reports success with the short count.
var errShort = errors.New("short write")

// faultFS is the real file system with deterministic, scripted faults:
// before every operation it asks inject, which names the operation
// ("create", "write", "close", "rename", "remove", "read", "readdir",
// "chtimes") and the path it acts on, and a non-nil answer fails the
// call. It also counts directory scans. Tests drive it from one
// goroutine, except TestConcurrentPutGet, which injects nothing.
type faultFS struct {
	osFS
	inject   func(op, name string) error
	readDirs atomic.Int64
}

func (f *faultFS) fault(op, name string) error {
	if f.inject == nil {
		return nil
	}
	return f.inject(op, name)
}

func (f *faultFS) CreateTemp(dir, pattern string) (tempFile, error) {
	if err := f.fault("create", dir); err != nil {
		return nil, err
	}
	t, err := f.osFS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{tempFile: t, fs: f}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if err := f.fault("rename", newpath); err != nil {
		return err
	}
	return f.osFS.Rename(oldpath, newpath)
}

func (f *faultFS) Remove(name string) error {
	if err := f.fault("remove", name); err != nil {
		return err
	}
	return f.osFS.Remove(name)
}

func (f *faultFS) ReadFile(name string) ([]byte, error) {
	if err := f.fault("read", name); err != nil {
		return nil, err
	}
	return f.osFS.ReadFile(name)
}

func (f *faultFS) ReadDir(dir string) ([]fileInfo, error) {
	f.readDirs.Add(1)
	if err := f.fault("readdir", dir); err != nil {
		return nil, err
	}
	return f.osFS.ReadDir(dir)
}

func (f *faultFS) Chtimes(name string, atime, mtime time.Time) error {
	if err := f.fault("chtimes", name); err != nil {
		return err
	}
	return f.osFS.Chtimes(name, atime, mtime)
}

// faultFile injects write and close faults into a temp file.
type faultFile struct {
	tempFile
	fs *faultFS
}

func (w *faultFile) Write(b []byte) (int, error) {
	err := w.fs.fault("write", w.Name())
	if err == nil {
		return w.tempFile.Write(b)
	}
	n, werr := w.tempFile.Write(b[:len(b)/2])
	if werr != nil || errors.Is(err, errShort) {
		return n, werr
	}
	return n, err
}

func (w *faultFile) Close() error {
	cerr := w.tempFile.Close()
	if err := w.fs.fault("close", w.Name()); err != nil {
		return err
	}
	return cerr
}

// failOp injects err into every call of op.
func failOp(op string, err error) func(string, string) error {
	return func(o, _ string) error {
		if o == op {
			return err
		}
		return nil
	}
}

// openFault opens a store over a faultFS in a fresh directory.
func openFault(t *testing.T, maxBytes int64) (*Store, *faultFS) {
	t.Helper()
	ffs := &faultFS{}
	s, err := openFS(ffs, t.TempDir(), maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s, ffs
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	files, err := osFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, f := range files {
		total += f.size
	}
	return total
}

// tempFiles lists the temp files in dir.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// frameSize is the on-disk size of an artifact.
func frameSize(kind, key string, payloadLen int) int64 {
	return int64(4 + 4 + 4 + len(fullKey(kind, key)) + 8 + payloadLen + 4)
}

// TestPutFaultsLeaveNothing injects each write-path fault into a Put
// that replaces a good artifact: the Put fails and is counted, no temp
// file survives, the index does not change, and the old artifact is
// still served.
func TestPutFaultsLeaveNothing(t *testing.T) {
	faults := map[string]func(string, string) error{
		"ENOSPC":      failOp("write", syscall.ENOSPC),
		"short write": failOp("write", errShort),
		"close":       failOp("close", syscall.EIO),
		"rename":      failOp("rename", syscall.EXDEV),
		"create":      failOp("create", syscall.EROFS),
	}
	for name, inject := range faults {
		t.Run(name, func(t *testing.T) {
			s, ffs := openFault(t, 1<<20)
			if err := s.Put("trace", "k", []byte("good payload")); err != nil {
				t.Fatal(err)
			}
			before := s.SizeBytes()
			ffs.inject = inject
			if err := s.Put("trace", "k", []byte("the replacement that fails")); err == nil {
				t.Fatal("Put succeeded under a fault")
			}
			if err := s.Put("trace", "other", make([]byte, 100)); err == nil {
				t.Fatal("Put succeeded under a fault")
			}
			ffs.inject = nil
			if got := s.PutErrors(); got != 2 {
				t.Errorf("PutErrors = %d, want 2", got)
			}
			if tmp := tempFiles(t, s.Dir()); len(tmp) != 0 {
				t.Errorf("failed Puts left temp files %v", tmp)
			}
			if got := s.SizeBytes(); got != before || got != dirBytes(t, s.Dir()) {
				t.Errorf("SizeBytes = %d, want %d (before) = directory bytes %d", got, before, dirBytes(t, s.Dir()))
			}
			if got, ok := s.Get("trace", "k"); !ok || string(got) != "good payload" {
				t.Errorf("Get after failed replace = %q, %v; want the old payload", got, ok)
			}
			if _, ok := s.Get("trace", "other"); ok {
				t.Error("Get hit an artifact whose Put failed")
			}
		})
	}
}

// TestFailedRemoveStaysCounted fails the removal of an eviction victim
// and of a corrupt file: neither leaves the index, so SizeBytes still
// matches the directory, a corrupt payload is never served, and the
// next Put with a working remove brings the store back under its bound.
func TestFailedRemoveStaysCounted(t *testing.T) {
	const bound = 1000
	s, ffs := openFault(t, bound)
	payload := make([]byte, 300)
	for i := 0; i < 3; i++ {
		if err := s.Put("trace", string(rune('a'+i)), payload); err != nil {
			t.Fatal(err)
		}
	}
	ffs.inject = failOp("remove", syscall.EACCES)
	if err := s.Put("trace", "d", payload); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, ev := s.Stats(); ev != 0 {
		t.Errorf("evictions = %d after a failed remove, want 0", ev)
	}
	if got, want := s.SizeBytes(), dirBytes(t, s.Dir()); got != want {
		t.Errorf("SizeBytes = %d, directory holds %d", got, want)
	}

	// Corrupt "d" on disk; its delete fails too.
	path := filepath.Join(s.Dir(), fileName("trace", fullKey("trace", "d")))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("trace", "d"); ok {
		t.Fatal("corrupt artifact served")
	}
	if got, want := s.SizeBytes(), dirBytes(t, s.Dir()); got != want {
		t.Errorf("after a failed corrupt-file delete: SizeBytes = %d, directory holds %d", got, want)
	}

	ffs.inject = nil
	if err := s.Put("trace", "e", payload); err != nil {
		t.Fatal(err)
	}
	if got := dirBytes(t, s.Dir()); got > bound {
		t.Errorf("directory holds %d bytes after a working Put, bound %d", got, bound)
	}
	if got, want := s.SizeBytes(), dirBytes(t, s.Dir()); got != want {
		t.Errorf("SizeBytes = %d, directory holds %d", got, want)
	}
	if _, ok := s.Get("trace", "d"); ok {
		t.Error("corrupt artifact served after recovery")
	}
}

// TestReadOnlyDirectory opens a store on a populated directory that
// refuses every change: Open succeeds, stored artifacts are served, and
// every Put fails, is counted, and leaves the index alone.
func TestReadOnlyDirectory(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put("analysis", "k", []byte("stored")); err != nil {
		t.Fatal(err)
	}
	ffs := &faultFS{inject: func(op, _ string) error {
		switch op {
		case "create", "rename", "remove", "chtimes":
			return syscall.EROFS
		}
		return nil
	}}
	s, err := openFS(ffs, dir, 1<<20)
	if err != nil {
		t.Fatalf("Open on a read-only directory: %v", err)
	}
	if got, ok := s.Get("analysis", "k"); !ok || string(got) != "stored" {
		t.Errorf("Get = %q, %v; want the stored payload", got, ok)
	}
	before := s.SizeBytes()
	if err := s.Put("analysis", "new", []byte("x")); err == nil {
		t.Error("Put succeeded on a read-only directory")
	}
	if s.PutErrors() != 1 || s.SizeBytes() != before || before != dirBytes(t, dir) {
		t.Errorf("PutErrors %d, SizeBytes %d → %d, directory %d", s.PutErrors(), before, s.SizeBytes(), dirBytes(t, dir))
	}

	ffs.inject = failOp("readdir", syscall.EACCES)
	if _, err := openFS(ffs, dir, 0); err == nil {
		t.Error("Open succeeded on a directory it cannot list")
	}
}

// TestIndexReconcilesExternalChanges deletes and adds files behind the
// index's back. Until the next scan SizeBytes is the index's view; once
// this Store has written an eighth of its bound, it rescans, and
// SizeBytes equals the directory's bytes again. A victim already gone
// is dropped without counting as an eviction.
func TestIndexReconcilesExternalChanges(t *testing.T) {
	const bound = 8000 // rescans every 1000 written bytes
	s, ffs := openFault(t, bound)
	for i := 0; i < 4; i++ {
		if err := s.Put("trace", string(rune('a'+i)), make([]byte, 200)); err != nil {
			t.Fatal(err)
		}
	}
	scans := ffs.readDirs.Load()
	// Behind the index's back: delete "a", add a 3000-byte foreign file.
	if err := os.Remove(filepath.Join(s.Dir(), fileName("trace", fullKey("trace", "a")))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), "tmp-foreign"), make([]byte, 3000), 0o644); err != nil {
		t.Fatal(err)
	}
	if s.SizeBytes() == dirBytes(t, s.Dir()) {
		t.Fatal("the external changes did not move the directory's bytes away from the index")
	}
	// Write until the rescan.
	for i := 0; ffs.readDirs.Load() == scans; i++ {
		if err := s.Put("prods", string(rune('a'+i)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.SizeBytes(), dirBytes(t, s.Dir()); got != want {
		t.Errorf("after a rescan SizeBytes = %d, directory holds %d", got, want)
	}

	// A victim deleted externally: the eviction finds it gone. The store
	// opens on a populated directory and writes less than an eighth of
	// its bound, so no rescan sees the deletion first.
	dir := t.TempDir()
	w, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Put("trace", string(rune('a'+i)), make([]byte, 250)); err != nil {
			t.Fatal(err)
		}
	}
	oldest := filepath.Join(dir, fileName("trace", fullKey("trace", "a")))
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(oldest, past, past); err != nil {
		t.Fatal(err)
	}
	ffs2 := &faultFS{}
	s2, err := openFS(ffs2, dir, 900)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(oldest); err != nil {
		t.Fatal(err)
	}
	if err := s2.Put("trace", "d", make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	if n := ffs2.readDirs.Load(); n != 1 {
		t.Fatalf("%d directory scans, want only Open's", n)
	}
	if _, _, _, _, ev := s2.Stats(); ev != 0 {
		t.Errorf("evictions = %d; removing an already deleted file is not an eviction", ev)
	}
	if got, want := s2.SizeBytes(), dirBytes(t, dir); got != want || got > 900 {
		t.Errorf("SizeBytes = %d, directory holds %d, bound 900", got, want)
	}
}

// TestCrashTempFileCountsAndEvictsFirst leaves a temp file from a crashed
// writer in the directory: Open counts it against the bound, and as the
// oldest file it is the first eviction.
func TestCrashTempFileCountsAndEvictsFirst(t *testing.T) {
	dir := t.TempDir()
	crash := filepath.Join(dir, "tmp-123456")
	if err := os.WriteFile(crash, make([]byte, 500), 0o644); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(crash, past, past); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if s.SizeBytes() != 500 {
		t.Errorf("SizeBytes = %d, want the crash file's 500", s.SizeBytes())
	}
	if err := s.Put("trace", "a", make([]byte, 600)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(crash); !os.IsNotExist(err) {
		t.Error("the crash temp file survived the first eviction")
	}
	if _, ok := s.Get("trace", "a"); !ok {
		t.Error("the new artifact was evicted instead of the crash file")
	}
}

// TestPutAtBoundScansRarely pins the reconcile rule by counting directory
// scans through the fake: Open scans once, and steady-state Puts at the
// bound scan once per maxBytes/8 bytes written, never per Put.
func TestPutAtBoundScansRarely(t *testing.T) {
	const bound = 64 << 10
	s, ffs := openFault(t, bound)
	payload := make([]byte, 1000)
	var written int64
	for i := 0; i < 2000; i++ {
		key := fmt.Sprint(i)
		if err := s.Put("analysis", key, payload); err != nil {
			t.Fatal(err)
		}
		written += frameSize("analysis", key, len(payload))
		if got := dirBytes(t, s.Dir()); got > bound {
			t.Fatalf("Put %d: directory holds %d bytes, bound %d", i, got, bound)
		}
	}
	if _, _, _, _, ev := s.Stats(); ev == 0 {
		t.Fatal("the store never reached its bound")
	}
	scans := ffs.readDirs.Load()
	if limit := 1 + written/(bound/reconcileDivisor); scans > limit {
		t.Errorf("%d directory scans for %d bytes written, want at most %d", scans, written, limit)
	}
	if scans < 2 {
		t.Errorf("%d directory scans: the store never reconciled", scans)
	}
}

// TestSharedDirectoryOvershootBound runs k Stores over one directory,
// each writing keys the others never index. Each reconciles once per
// maxBytes/8 bytes it writes, so between Puts the directory stays under
// maxBytes·(1 + (k-1)/8) — the bound DESIGN.md §6c states.
func TestSharedDirectoryOvershootBound(t *testing.T) {
	const bound = 32 << 10
	for _, k := range []int{2, 3} {
		dir := t.TempDir()
		stores := make([]*Store, k)
		for i := range stores {
			s, err := Open(dir, bound)
			if err != nil {
				t.Fatal(err)
			}
			stores[i] = s
		}
		limit := int64(bound + (k-1)*bound/reconcileDivisor)
		var peak int64
		for i := 0; i < 3000; i++ {
			// A fixed, uneven schedule: store j writes a payload of
			// 100–2000 bytes.
			j := (i*7 + i/5) % k
			size := 100 + (i*379)%1900
			if err := stores[j].Put("trace", string(rune('a'+j))+string(rune(i)), make([]byte, size)); err != nil {
				t.Fatal(err)
			}
			got := dirBytes(t, dir)
			if got > limit {
				t.Fatalf("k=%d, Put %d: directory holds %d bytes, bound %d·(1+(k-1)/8) = %d", k, i, got, bound, limit)
			}
			peak = max(peak, got)
		}
		if peak <= bound {
			t.Errorf("k=%d: the directory never exceeded maxBytes; the test exercises nothing", k)
		}
		t.Logf("k=%d: peak %d bytes, maxBytes %d, bound %d", k, peak, bound, limit)
	}
}

// TestConcurrentPutGet drives one bounded store from several goroutines
// (run it under -race): every hit returns the payload put under its
// key, and once the writers stop, the next rescan leaves SizeBytes equal
// to the directory's bytes, within the bound. The bound holds hundreds
// of files, so no in-flight temp file ages into the eviction victim
// (see evict).
func TestConcurrentPutGet(t *testing.T) {
	const bound = 1 << 20
	s, ffs := openFault(t, bound)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := string(rune('a'+g)) + string(rune(i))
				if err := s.Put("trace", key, bytes.Repeat([]byte{byte(g + i)}, 500+(i*97)%1500)); err != nil {
					t.Error(err)
					return
				}
				j := (i * 7) % (i + 1)
				want := bytes.Repeat([]byte{byte(g + j)}, 500+(j*97)%1500)
				if got, ok := s.Get("trace", string(rune('a'+g))+string(rune(j))); ok && !bytes.Equal(got, want) {
					t.Errorf("goroutine %d: Get(%d) returned another payload", g, j)
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, _, _, _, ev := s.Stats(); ev == 0 {
		t.Error("the store never reached its bound")
	}
	scans := ffs.readDirs.Load()
	for i := 0; ffs.readDirs.Load() == scans; i++ {
		if err := s.Put("prods", string(rune(i)), make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.SizeBytes(), dirBytes(t, s.Dir()); got != want || got > bound {
		t.Errorf("SizeBytes = %d, directory holds %d, bound %d", got, want, bound)
	}
}

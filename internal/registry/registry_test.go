package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fomodel/internal/artifact"
	"fomodel/internal/workload"
)

// testProfile returns a valid profile derived from a built-in, renamed
// so it can be registered.
func testProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	p.Name = name
	return p
}

func TestRegisterGetDelete(t *testing.T) {
	r := New(Config{})
	prof := testProfile(t, "mine")
	e, err := r.Register("alice", "mine", prof)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "mine" || e.Tenant != "alice" || e.Hash == "" || e.Bytes <= 0 {
		t.Errorf("entry = %+v", e)
	}
	if got, ok := r.Get("mine"); !ok || got.Hash != e.Hash {
		t.Error("Get did not round-trip the registration")
	}
	if hash, ok := r.WorkloadContent("mine"); !ok || hash != e.Hash {
		t.Error("WorkloadContent did not resolve the registered name")
	}
	if err := r.Delete("alice", "mine"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("mine"); ok {
		t.Error("entry survived deletion")
	}
	if err := r.Delete("alice", "mine"); !errors.Is(err, ErrNotFound) {
		t.Errorf("second delete = %v, want ErrNotFound", err)
	}
}

func TestRegisterFillsAndChecksProfileName(t *testing.T) {
	r := New(Config{})
	prof := testProfile(t, "x")
	prof.Name = ""
	e, err := r.Register("alice", "x", prof)
	if err != nil {
		t.Fatal(err)
	}
	if e.Profile.Name != "x" {
		t.Errorf("empty profile name not filled from the workload name: %q", e.Profile.Name)
	}
	if _, err := r.Register("alice", "y", testProfile(t, "not-y")); err == nil {
		t.Error("mismatched profile name accepted")
	}
}

func TestBuiltinCollisionRejected(t *testing.T) {
	r := New(Config{})
	if _, err := r.Register("alice", "gzip", testProfile(t, "gzip")); !errors.Is(err, ErrBuiltin) {
		t.Errorf("registering over a built-in = %v, want ErrBuiltin", err)
	}
}

func TestInvalidNamesRejected(t *testing.T) {
	r := New(Config{})
	for _, name := range []string{"", "has space", "has/slash", "has:colon", "has|pipe",
		"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"} {
		if ValidName(name) {
			t.Errorf("ValidName(%q) = true", name)
		}
		if _, err := r.Register("alice", name, testProfile(t, name)); err == nil {
			t.Errorf("invalid name %q accepted", name)
		}
	}
	if _, err := r.Register("bad tenant", "ok", testProfile(t, "ok")); err == nil {
		t.Error("invalid tenant accepted")
	}
}

func TestTenantOwnership(t *testing.T) {
	r := New(Config{})
	if _, err := r.Register("alice", "shared", testProfile(t, "shared")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("bob", "shared", testProfile(t, "shared")); !errors.Is(err, ErrOwned) {
		t.Errorf("cross-tenant replace = %v, want ErrOwned", err)
	}
	if err := r.Delete("bob", "shared"); !errors.Is(err, ErrOwned) {
		t.Errorf("cross-tenant delete = %v, want ErrOwned", err)
	}
	// The owner can still replace its own entry.
	if _, err := r.Register("alice", "shared", testProfile(t, "shared")); err != nil {
		t.Errorf("owner replace failed: %v", err)
	}
}

func TestCountQuota(t *testing.T) {
	r := New(Config{MaxPerTenant: 2})
	for _, name := range []string{"a", "b"} {
		if _, err := r.Register("alice", name, testProfile(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Register("alice", "c", testProfile(t, "c")); !errors.Is(err, ErrQuota) {
		t.Errorf("over-quota register = %v, want ErrQuota", err)
	}
	// Replacement does not consume a new slot.
	if _, err := r.Register("alice", "a", testProfile(t, "a")); err != nil {
		t.Errorf("replacement counted against the quota: %v", err)
	}
	// Other tenants have their own budget.
	if _, err := r.Register("bob", "c", testProfile(t, "c")); err != nil {
		t.Errorf("other tenant's register failed: %v", err)
	}
}

func TestByteQuota(t *testing.T) {
	prof := testProfile(t, "a")
	size, err := encodedSize(prof)
	if err != nil {
		t.Fatal(err)
	}
	r := New(Config{MaxBytesPerTenant: size + size/2})
	if _, err := r.Register("alice", "a", prof); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("alice", "b", testProfile(t, "b")); !errors.Is(err, ErrQuota) {
		t.Errorf("over-byte-quota register = %v, want ErrQuota", err)
	}
	u := r.TenantUsage()["alice"]
	if u.Count != 1 || u.Bytes != size {
		t.Errorf("usage = %+v, want {1 %d}", u, size)
	}
}

func TestNilRegistryIsEmpty(t *testing.T) {
	var r *Registry
	if _, ok := r.Get("x"); ok {
		t.Error("nil Get hit")
	}
	if _, _, ok := r.Snapshot("x"); ok {
		t.Error("nil Snapshot hit")
	}
	if r.List() != nil || r.TenantUsage() != nil {
		t.Error("nil accessors not empty")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := artifact.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := New(Config{Store: store})
	want, err := r.Register("alice", "mine", testProfile(t, "mine"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("bob", "other", testProfile(t, "other")); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("bob", "other"); err != nil {
		t.Fatal(err)
	}

	// A fresh process: new store handle, new registry, Load.
	store2, err := artifact.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2 := New(Config{Store: store2})
	n, err := r2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d entries, want 1", n)
	}
	got, ok := r2.Get("mine")
	if !ok {
		t.Fatal("persisted entry missing after Load")
	}
	if got.Tenant != "alice" || got.Hash != want.Hash || got.Bytes != want.Bytes {
		t.Errorf("restored entry %+v, want %+v", got, want)
	}
	if _, ok := r2.Get("other"); ok {
		t.Error("deleted entry resurrected by Load")
	}
}

// TestTornIndexWriteKeepsPreviousIndex simulates a crash while the
// index is rewritten: the store writes a temp file and renames it over
// the index, so a crash between the two leaves a partial temp file
// beside the previous index. A fresh process must load the previous
// index exactly, whatever prefix of the new one reached the disk, and
// must still persist later registrations.
func TestTornIndexWriteKeepsPreviousIndex(t *testing.T) {
	// The bytes of the index write that crashes: the same registrations
	// plus one more, persisted through a store in another directory.
	nextDir := t.TempDir()
	nextStore, err := artifact.Open(nextDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	next := New(Config{Store: nextStore})
	for _, name := range []string{"mine", "theirs", "late"} {
		if _, err := next.Register("alice", name, testProfile(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	files, err := filepath.Glob(filepath.Join(nextDir, "*"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want the index as the only file, got %v (err %v)", files, err)
	}
	full, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range []int{0, 1, len(full) / 2, len(full) - 1, len(full)} {
		t.Run(fmt.Sprint(cut), func(t *testing.T) {
			dir := t.TempDir()
			store, err := artifact.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			r := New(Config{Store: store})
			for _, name := range []string{"mine", "theirs"} {
				if _, err := r.Register("alice", name, testProfile(t, name)); err != nil {
					t.Fatal(err)
				}
			}
			want := r.List()
			if err := os.WriteFile(filepath.Join(dir, "tmp-torn"), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}

			reopened, err := artifact.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			r2 := New(Config{Store: reopened})
			if n, err := r2.Load(); err != nil || n != len(want) {
				t.Fatalf("Load restored %d entries (err %v), want %d", n, err, len(want))
			}
			if got := r2.List(); !reflect.DeepEqual(got, want) {
				t.Fatalf("reloaded registry differs from the previous index:\n got %+v\nwant %+v", got, want)
			}

			// The torn file does not shadow later writes.
			if _, err := r2.Register("alice", "late", testProfile(t, "late")); err != nil {
				t.Fatal(err)
			}
			again, err := artifact.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := New(Config{Store: again}).Load(); err != nil || n != 3 {
				t.Fatalf("after a later registration, Load restored %d entries (err %v), want 3", n, err)
			}
		})
	}
}

// TestBoundedStoreKeepsIndex is the regression test for eviction
// deleting the registry's index: once a bounded store cycles, the index
// is its oldest file, and evicting it dropped every registration at the
// next restart.
func TestBoundedStoreKeepsIndex(t *testing.T) {
	dir := t.TempDir()
	store, err := artifact.Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	r := New(Config{Store: store})
	if _, err := r.Register("alice", "mine", testProfile(t, "mine")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := store.Put("trace", fmt.Sprint(i), make([]byte, 100_000)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, _, evictions := store.Stats(); evictions == 0 {
		t.Fatal("the store never evicted; the test exercises nothing")
	}

	store2, err := artifact.Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := New(Config{Store: store2}).Load(); err != nil || n != 1 {
		t.Fatalf("restored %d registrations (err %v), want 1", n, err)
	}
}

func TestLoadSkipsInvalidEntries(t *testing.T) {
	store, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r := New(Config{Store: store})
	if _, err := r.Register("alice", "good", testProfile(t, "good")); err != nil {
		t.Fatal(err)
	}
	// Corrupt the persisted index with an entry colliding with a
	// built-in and one with a broken profile.
	bad := testProfile(t, "gzip")
	broken := testProfile(t, "broken")
	broken.NumBlocks = -1
	r.entries["gzip"] = &Entry{Name: "gzip", Tenant: "alice", Profile: bad}
	r.entries["broken"] = &Entry{Name: "broken", Tenant: "alice", Profile: broken}
	r.mu.Lock()
	r.persistLocked()
	r.mu.Unlock()

	r2 := New(Config{Store: store})
	n, err := r2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("restored %d entries, want only the valid one", n)
	}
	if _, ok := r2.Get("gzip"); ok {
		t.Error("built-in-colliding entry restored")
	}
	if _, ok := r2.Get("broken"); ok {
		t.Error("invalid profile restored")
	}
}

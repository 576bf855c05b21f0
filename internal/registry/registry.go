// Package registry implements the named custom-workload registry: a
// tenant-scoped mapping from workload names to validated
// workload.Profile values, with per-tenant count and byte quotas and
// optional persistence through the artifact store.
//
// A registered name works anywhere a built-in benchmark name is
// accepted (predict, sweep, batch, optimize, the CLI's -remote mode,
// and the proxy). The registry never serves traces itself; it resolves
// names to profiles and to content hashes, and the existing
// content-keyed machinery (workload.CustomContentID, internal/reqkey)
// does the rest: two tenants registering identical profiles share one
// trace and one cache entry, while re-registering a name with
// different content changes every downstream key, so stale results
// cannot be served under the new definition.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"fomodel/internal/artifact"
	"fomodel/internal/metrics"
	"fomodel/internal/workload"
)

// Sentinel errors; handlers map these to HTTP statuses (ErrBuiltin →
// 400, ErrOwned → 409, ErrQuota → 403, ErrNotFound → 404).
var (
	ErrNotFound = errors.New("registry: no workload registered under this name")
	ErrBuiltin  = errors.New("registry: name collides with a built-in profile")
	ErrOwned    = errors.New("registry: name is owned by another tenant")
	ErrQuota    = errors.New("registry: tenant quota exceeded")
)

// Defaults applied when Config leaves the quotas zero.
const (
	DefaultMaxPerTenant      = 16
	DefaultMaxBytesPerTenant = 1 << 20
)

// indexKind and indexKey locate the persisted registry index in the
// artifact store. The index is one JSON blob rewritten per mutation:
// registrations are small (quota-bounded), and a single blob keeps the
// load path one read and the crash semantics one atomic rename. The
// store never evicts this kind, so a bounded store that cycles its
// other artifacts keeps the registrations.
const (
	indexKind = artifact.PinnedKind
	indexKey  = "index"
)

// Config parameterizes New.
type Config struct {
	// MaxPerTenant bounds the number of workloads one tenant may hold;
	// zero means DefaultMaxPerTenant.
	MaxPerTenant int
	// MaxBytesPerTenant bounds the summed encoded-profile bytes one
	// tenant may hold; zero means DefaultMaxBytesPerTenant.
	MaxBytesPerTenant int64
	// Store, when non-nil, persists the registry index so
	// registrations survive daemon restarts.
	Store *artifact.Store
}

// Entry is one registered workload.
type Entry struct {
	// Name is the registered name; Profile.Name always equals it.
	Name string
	// Tenant owns the entry; only the owner may replace or delete it.
	Tenant string
	// Hash is the profile's workload content hash (name-independent).
	Hash string
	// Bytes is the canonical encoded size charged against the byte
	// quota.
	Bytes int64
	// Profile is the validated profile.
	Profile workload.Profile
}

// Usage is one tenant's quota consumption.
type Usage struct {
	Count int
	Bytes int64
}

// Registry is the named-workload table. Safe for concurrent use. A nil
// *Registry is valid and empty: lookups miss and mutations fail with
// ErrQuota-free internal errors — callers that support registration
// construct one via New.
type Registry struct {
	maxPerTenant int
	maxBytes     int64
	store        *artifact.Store

	mu      sync.RWMutex
	entries map[string]*Entry // by name

	registers, deletes, rejects, persistErrors metrics.Counter
}

// New builds an empty registry with cfg's quotas (defaults applied).
// Call Load afterwards to restore persisted registrations.
func New(cfg Config) *Registry {
	if cfg.MaxPerTenant <= 0 {
		cfg.MaxPerTenant = DefaultMaxPerTenant
	}
	if cfg.MaxBytesPerTenant <= 0 {
		cfg.MaxBytesPerTenant = DefaultMaxBytesPerTenant
	}
	return &Registry{
		maxPerTenant: cfg.MaxPerTenant,
		maxBytes:     cfg.MaxBytesPerTenant,
		store:        cfg.Store,
		entries:      make(map[string]*Entry),
	}
}

// ValidName reports whether s is usable as a workload name or tenant
// id: 1–64 characters from [a-zA-Z0-9._-]. The charset excludes ':'
// and '|' (used as separators inside content IDs) and anything that
// needs escaping in a URL path or a Prometheus label.
func ValidName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// isBuiltin reports whether name is one of the built-in profiles.
func isBuiltin(name string) bool {
	_, err := workload.ByName(name)
	return err == nil
}

// encodedSize returns the canonical encoded size of a profile — what
// the byte quota charges. Profile's MarshalJSON is deterministic
// (json.Marshal sorts the mix map's keys), so the same profile always
// costs the same bytes.
func encodedSize(prof workload.Profile) (int64, error) {
	b, err := json.Marshal(prof)
	if err != nil {
		return 0, fmt.Errorf("registry: encode profile: %w", err)
	}
	return int64(len(b)), nil
}

// Register validates and stores prof under name for tenant, replacing
// any previous entry the same tenant registered under that name. An
// empty prof.Name is filled from name; a non-empty prof.Name must
// equal name (the name is identity, and the generator stamps it into
// trace metadata). Returns the stored entry.
func (r *Registry) Register(tenant, name string, prof workload.Profile) (Entry, error) {
	if !ValidName(name) {
		r.rejects.Inc()
		return Entry{}, fmt.Errorf("registry: invalid workload name %q (need 1-64 chars of [a-zA-Z0-9._-])", name)
	}
	if !ValidName(tenant) {
		r.rejects.Inc()
		return Entry{}, fmt.Errorf("registry: invalid tenant %q (need 1-64 chars of [a-zA-Z0-9._-])", tenant)
	}
	if isBuiltin(name) {
		r.rejects.Inc()
		return Entry{}, fmt.Errorf("%w: %q", ErrBuiltin, name)
	}
	if prof.Name == "" {
		prof.Name = name
	}
	if prof.Name != name {
		r.rejects.Inc()
		return Entry{}, fmt.Errorf("registry: profile name %q does not match workload name %q", prof.Name, name)
	}
	if err := prof.Validate(); err != nil {
		r.rejects.Inc()
		return Entry{}, err
	}
	size, err := encodedSize(prof)
	if err != nil {
		r.rejects.Inc()
		return Entry{}, err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.entries[name]
	if prev != nil && prev.Tenant != tenant {
		r.rejects.Inc()
		return Entry{}, fmt.Errorf("%w: %q", ErrOwned, name)
	}
	count, bytes := r.usageLocked(tenant)
	if prev != nil {
		count--
		bytes -= prev.Bytes
	}
	if count+1 > r.maxPerTenant || bytes+size > r.maxBytes {
		r.rejects.Inc()
		return Entry{}, fmt.Errorf("%w: tenant %q at %d/%d workloads, %d/%d bytes, adding %d",
			ErrQuota, tenant, count, r.maxPerTenant, bytes, r.maxBytes, size)
	}
	e := &Entry{Name: name, Tenant: tenant, Hash: prof.ContentHash(), Bytes: size, Profile: prof}
	r.entries[name] = e
	r.registers.Inc()
	r.persistLocked()
	return *e, nil
}

// Delete removes tenant's entry under name. Deleting a name owned by
// another tenant fails with ErrOwned; a missing name with ErrNotFound.
func (r *Registry) Delete(tenant, name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[name]
	if e == nil {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if e.Tenant != tenant {
		return fmt.Errorf("%w: %q", ErrOwned, name)
	}
	delete(r.entries, name)
	r.deletes.Inc()
	r.persistLocked()
	return nil
}

// Get returns the entry registered under name.
func (r *Registry) Get(name string) (Entry, bool) {
	if r == nil {
		return Entry{}, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	e := r.entries[name]
	if e == nil {
		return Entry{}, false
	}
	return *e, true
}

// Snapshot resolves name to its current profile and content hash. It
// is the lookup hook the experiment suite and the server's request
// normalization use; the profile is returned by value so later
// re-registrations cannot mutate an in-flight computation.
func (r *Registry) Snapshot(name string) (workload.Profile, string, bool) {
	if r == nil {
		return workload.Profile{}, "", false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	e := r.entries[name]
	if e == nil {
		return workload.Profile{}, "", false
	}
	return e.Profile, e.Hash, true
}

// WorkloadContent reports the content hash registered under name; it
// makes the registry a reqkey.Resolver, so canonical cache keys for
// requests naming registered workloads embed the profile content.
func (r *Registry) WorkloadContent(name string) (string, bool) {
	_, hash, ok := r.Snapshot(name)
	return hash, ok
}

// List returns every entry sorted by name.
func (r *Registry) List() []Entry {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// usageLocked sums tenant's quota consumption; r.mu must be held.
func (r *Registry) usageLocked(tenant string) (count int, bytes int64) {
	for _, e := range r.entries {
		if e.Tenant == tenant {
			count++
			bytes += e.Bytes
		}
	}
	return count, bytes
}

// TenantUsage returns per-tenant quota consumption, for /metrics.
func (r *Registry) TenantUsage() map[string]Usage {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]Usage)
	for _, e := range r.entries {
		u := out[e.Tenant]
		u.Count++
		u.Bytes += e.Bytes
		out[e.Tenant] = u
	}
	return out
}

// Stats reports the registry's lifetime counters.
func (r *Registry) Stats() (registers, deletes, rejects, persistErrors int64) {
	if r == nil {
		return 0, 0, 0, 0
	}
	return r.registers.Load(), r.deletes.Load(), r.rejects.Load(), r.persistErrors.Load()
}

// Quotas returns the effective per-tenant limits.
func (r *Registry) Quotas() (maxPerTenant int, maxBytesPerTenant int64) {
	return r.maxPerTenant, r.maxBytes
}

// indexFile is the persisted registry index.
type indexFile struct {
	Version int          `json:"version"`
	Entries []indexEntry `json:"entries"`
}

type indexEntry struct {
	Tenant  string           `json:"tenant"`
	Name    string           `json:"name"`
	Profile workload.Profile `json:"profile"`
}

// persistLocked rewrites the index blob in the artifact store; r.mu
// must be held. Persistence is best-effort — the registry is
// authoritative in memory, and a failed write costs re-registration
// after a restart, not correctness — so failures are counted, not
// returned.
func (r *Registry) persistLocked() {
	if r.store == nil {
		return
	}
	idx := indexFile{Version: 1}
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := r.entries[name]
		idx.Entries = append(idx.Entries, indexEntry{Tenant: e.Tenant, Name: e.Name, Profile: e.Profile})
	}
	blob, err := json.Marshal(idx)
	if err == nil {
		err = r.store.Put(indexKind, indexKey, blob)
	}
	if err != nil {
		r.persistErrors.Inc()
	}
}

// Load restores registrations persisted by a previous process.
// Entries that no longer validate (e.g. after a Validate tightening or
// a built-in name addition) are skipped, not fatal: the rest of the
// registry stays usable and skipped entries surface as 404s the tenant
// can re-register. Returns the number of entries restored.
func (r *Registry) Load() (int, error) {
	if r.store == nil {
		return 0, nil
	}
	blob, ok := r.store.Get(indexKind, indexKey)
	if !ok {
		return 0, nil
	}
	var idx indexFile
	if err := json.Unmarshal(blob, &idx); err != nil {
		return 0, fmt.Errorf("registry: decode persisted index: %w", err)
	}
	if idx.Version != 1 {
		return 0, fmt.Errorf("registry: persisted index version %d, want 1", idx.Version)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	restored := 0
	for _, ie := range idx.Entries {
		if !ValidName(ie.Name) || !ValidName(ie.Tenant) || isBuiltin(ie.Name) {
			continue
		}
		prof := ie.Profile
		if prof.Name != ie.Name || prof.Validate() != nil {
			continue
		}
		size, err := encodedSize(prof)
		if err != nil {
			continue
		}
		// Hashes are recomputed, never trusted from disk: the hash is a
		// cache-correctness input, and GenVersion-style drift must show
		// up here, not in a stale served result.
		r.entries[ie.Name] = &Entry{
			Name: ie.Name, Tenant: ie.Tenant,
			Hash: prof.ContentHash(), Bytes: size, Profile: prof,
		}
		restored++
	}
	return restored, nil
}

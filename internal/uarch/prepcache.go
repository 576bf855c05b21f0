package uarch

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"fomodel/internal/artifact"
	"fomodel/internal/cache"
	"fomodel/internal/flight"
	"fomodel/internal/predictor"
	"fomodel/internal/stats"
	"fomodel/internal/trace"
)

// classKey is the classification-relevant subset of Config. Two configs
// with equal keys produce bit-identical Classify results on the same
// trace, so the prep cache may share one classification between them.
//
// Deliberately excluded — they affect only the timing pass, never the
// functional classification: Width, FrontEndDepth, WindowSize, ROBSize,
// Latencies, FUCounts, FetchBufferSize, InOrder, RecordIssueTrace,
// Clusters, BypassLatency, SerializeLongMisses (run derives the isolated
// events from the shared classification), the three Ideal* toggles
// (Classify always runs the full functional pass; run decides whether to
// charge the events), the hierarchy's Short/LongMissLatency, and the
// TLB's MissLatency. The Ideal-toggle exclusion is what lets the paper's
// five-simulation experiments (Fig. 2, Fig. 9, …) share one prep.
type classKey struct {
	l1i, l1d, l2 cache.Config
	predBits     uint
	hasSpec      bool
	spec         predictor.Spec
	hasTLB       bool
	tlbEntries   int
	tlbPageBytes uint64
	warmup       bool
}

// classFormatVersion is the serialization version of classification
// preps. It is part of every preps artifact key, so a change to the
// classification semantics or the packed encoding invalidates stored
// artifacts instead of reinterpreting them.
const classFormatVersion = 1

// artifactKey renders the key as the canonical content string used by
// the artifact store. Every field is a scalar or a plain struct of
// scalars, so %+v is a stable, collision-free rendering.
func (k classKey) artifactKey() string {
	return fmt.Sprintf("c%d|%+v", classFormatVersion, k)
}

// classificationKey keys cfg's classification: the fields of its
// analysis projection that the pass's outcomes depend on.
func classificationKey(cfg Config) classKey {
	c := cfg.Analysis()
	k := classKey{
		l1i:    c.Hierarchy.L1I,
		l1d:    c.Hierarchy.L1D,
		l2:     c.Hierarchy.L2,
		warmup: c.Warmup,
	}
	if c.Predictor != nil {
		// The spec overrides the gshare default, so PredictorBits is
		// irrelevant and must not fragment the key.
		k.hasSpec, k.spec = true, *c.Predictor
	} else {
		k.predBits = c.PredictorBits
	}
	if c.TLB != nil {
		k.hasTLB = true
		k.tlbEntries = c.TLB.Entries
		k.tlbPageBytes = c.TLB.PageBytes
	}
	return k
}

// traceID identifies a trace by content when possible and by pointer
// identity otherwise. Content-identified traces (from the deterministic
// workload generators) share cache entries across distinct in-memory
// copies, across processes, and across restarts; anonymous traces fall
// back to identity, exactly as safe as the old pointer keying.
type traceID struct {
	content string
	ptr     *trace.Trace
}

func idOf(t *trace.Trace) traceID {
	if t.ContentID != "" {
		return traceID{content: t.ContentID}
	}
	return traceID{ptr: t}
}

// prepsKey identifies one cached classification: the trace's content (or
// identity) and the classification-relevant config subset.
type prepsKey struct {
	id  traceID
	key classKey
}

// defaultMaxPreps is the default entry bound. An entry holds one event
// byte per dynamic instruction, so the bound is what keeps a client
// sweeping seeds (each sweep step a fresh content key) from growing the
// cache without limit. At the daemon's default 500k instructions, 64
// entries cap the cache's footprint at about 32 MB.
const defaultMaxPreps = 64

// PrepCache memoizes the expensive one-time preparation work of Simulate
// across configs and runs: the functional classification pass (caches,
// predictor, TLB, warmup), keyed on the classification-relevant subset of
// Config. Multi-config studies — the paper's five-simulation independence
// experiments, predictor studies, ROB/window sweeps — vary only
// timing-side parameters, so with the cache they classify each trace once
// instead of once per config. The timing pass needs nothing else per
// trace: it reads register dependences from the trace as it goes.
//
// Entries are keyed by trace *content* (trace.Trace.ContentID) when the
// trace carries it, falling back to pointer identity for anonymous
// traces, and the map is a bounded flight LRU: a workload population of
// unbounded size (seed sweeps, per-user workloads) recycles slots instead
// of growing without bound. With a Store attached, evicted or
// never-computed classifications are served from disk when a valid
// artifact exists, and fresh computations are written back — that is
// what carries prep work across daemon restarts.
//
// The cache is safe for concurrent use and single-flight: concurrent
// requests for the same key block on one computation and share its
// result, so a parallel sweep performs exactly the same number of
// classifications as a sequential one. run never mutates preps, so
// sharing one slice across concurrent simulations is race-free.
//
// A nil *PrepCache is valid and simply disables caching.
type PrepCache struct {
	preps *flight.Cache[prepsKey, []stats.Event]
	store atomic.Pointer[artifact.Store]
}

// NewPrepCache returns an empty cache with the default entry bound.
func NewPrepCache() *PrepCache {
	return newPrepCache(defaultMaxPreps)
}

// newPrepCache returns an empty cache holding at most maxPreps
// classifications.
func newPrepCache(maxPreps int) *PrepCache {
	return &PrepCache{preps: flight.New[prepsKey, []stats.Event](maxPreps, nil)}
}

// SetStore attaches the persistent artifact store: classifications of
// content-identified traces are read from it before being computed, and
// written back after a computation. A nil store detaches.
func (pc *PrepCache) SetStore(s *artifact.Store) {
	if pc == nil {
		return
	}
	pc.store.Store(s)
}

// Simulate is Simulate with the preparation work served from the cache.
// It returns results identical to the package-level Simulate for every
// (trace, config) pair.
//
// Config errors are rejected here, before the cache is consulted, so a
// classification can fail only by panicking; like every flight cache,
// the prep cache shares a failure with its waiters and then forgets it.
func (pc *PrepCache) Simulate(t *trace.Trace, cfg Config) (*Result, error) {
	if pc == nil {
		return Simulate(t, cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("uarch: empty trace %q", t.Name)
	}
	store := pc.store.Load()
	k := prepsKey{id: idOf(t), key: classificationKey(cfg)}
	preps, _, err := pc.preps.Do(k, func() ([]stats.Event, error) {
		return loadOrClassify(store, t, cfg, k.key)
	})
	if err != nil {
		return nil, err
	}
	return run(t, cfg, preps)
}

// loadOrClassify serves the classification from the artifact store when
// the trace is content-identified and a valid artifact exists, and
// computes (and stores) it otherwise.
func loadOrClassify(store *artifact.Store, t *trace.Trace, cfg Config, k classKey) ([]stats.Event, error) {
	akey := ""
	if store != nil && t.ContentID != "" {
		akey = t.ContentID + "|" + k.artifactKey()
		if b, ok := store.Get("preps", akey); ok {
			if preps, err := decodePreps(b, t.Len()); err == nil {
				return preps, nil
			}
			// Structurally valid file, stale content (e.g. written for a
			// different trace length): recompute and overwrite below.
		}
	}
	preps, err := Classify(t, cfg)
	if err == nil && akey != "" {
		store.Put("preps", akey, encodePreps(preps))
	}
	return preps, err
}

// Forget drops every cached entry derived from t — its classifications,
// for any config — and counts them as evictions. Callers that evict a
// trace from their own cache (the daemon's bounded trace cache) use it
// to release the prep entries that trace populated; with a store
// attached, the artifacts remain on disk, so a later request for the
// same content re-warms cheaply instead of recomputing.
func (pc *PrepCache) Forget(t *trace.Trace) {
	if pc == nil || t == nil {
		return
	}
	id := idOf(t)
	pc.preps.DeleteFunc(func(k prepsKey, _ []stats.Event) bool { return k.id == id })
}

// Len reports the number of cached classifications, in-flight ones
// included. Zero on a nil cache.
func (pc *PrepCache) Len() int {
	if pc == nil {
		return 0
	}
	return pc.preps.Len()
}

// Stats reports how many classification requests were served from the
// cache (hits) versus computed or loaded from the store (misses). A
// request that joins an in-flight computation counts as a hit: it
// performed no work of its own. A request served from the artifact
// store counts as a miss here and as a hit in the store's own counters.
// Safe for concurrent use; zero on a nil cache.
func (pc *PrepCache) Stats() (hits, misses int64) {
	if pc == nil {
		return 0, 0
	}
	hits, misses, _ = pc.preps.Stats()
	return hits, misses
}

// Evictions reports how many classifications the cache has dropped by
// its LRU bound or by Forget. Zero on a nil cache.
func (pc *PrepCache) Evictions() int64 {
	if pc == nil {
		return 0
	}
	_, _, evictions := pc.preps.Stats()
	return evictions
}

// Packed preps format (artifact payloads): magic, count, then each
// instruction's stats.Event byte — bits 0-1 the I-side cache.Result,
// bits 2-3 the D-side result, bit 4 the mispredict flag, bit 5 the
// TLB-miss flag.
var prepsMagic = [4]byte{'F', 'O', 'C', '1'}

func encodePreps(preps []stats.Event) []byte {
	buf := make([]byte, 12+len(preps))
	copy(buf, prepsMagic[:])
	binary.LittleEndian.PutUint64(buf[4:12], uint64(len(preps)))
	for i, p := range preps {
		buf[12+i] = byte(p)
	}
	return buf
}

func decodePreps(data []byte, wantLen int) ([]stats.Event, error) {
	if len(data) < 12 || [4]byte(data[:4]) != prepsMagic {
		return nil, fmt.Errorf("uarch: bad preps header")
	}
	count := binary.LittleEndian.Uint64(data[4:12])
	if count != uint64(wantLen) || uint64(len(data)) != 12+count {
		return nil, fmt.Errorf("uarch: preps length mismatch (count %d, want %d, %d bytes)",
			count, wantLen, len(data))
	}
	preps := make([]stats.Event, count)
	for i, b := range data[12:] {
		p := stats.Event(b)
		if !p.Valid() {
			return nil, fmt.Errorf("uarch: invalid preps record %d (0x%02x)", i, b)
		}
		preps[i] = p
	}
	return preps, nil
}

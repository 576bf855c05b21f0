package uarch

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"sync"
	"testing"

	"fomodel/internal/artifact"
	"fomodel/internal/cache"
	"fomodel/internal/predictor"
	"fomodel/internal/rng"
	"fomodel/internal/stats"
	"fomodel/internal/trace"
	"fomodel/internal/workload"
)

// randomConfig draws a structurally valid configuration spanning both
// classification-relevant fields (hierarchy geometry, predictor, TLB,
// warmup) and timing-only fields (widths, sizes, latencies, toggles).
func randomConfig(r *rng.PCG) Config {
	cfg := DefaultConfig()
	cfg.Width = []int{1, 2, 4, 8}[r.Intn(4)]
	cfg.WindowSize = []int{4, 16, 48}[r.Intn(3)]
	cfg.ROBSize = cfg.WindowSize + []int{0, 16, 80}[r.Intn(3)]
	cfg.FrontEndDepth = []int{1, 5, 9}[r.Intn(3)]
	cfg.IdealICache = r.Bool(0.5)
	cfg.IdealDCache = r.Bool(0.5)
	cfg.IdealPredictor = r.Bool(0.5)
	cfg.Warmup = r.Bool(0.5)
	cfg.SerializeLongMisses = r.Bool(0.3)
	cfg.InOrder = r.Bool(0.2)
	if r.Bool(0.3) {
		cfg.PredictorBits = uint(8 + r.Intn(8))
	}
	if r.Bool(0.3) {
		spec := predictor.Spec{Kind: predictor.KindBimodal, IndexBits: 10}
		cfg.Predictor = &spec
	}
	if r.Bool(0.3) {
		tlb := cache.DefaultTLB()
		tlb.Entries = []int{16, 64}[r.Intn(2)]
		cfg.TLB = &tlb
	}
	if r.Bool(0.3) {
		cfg.FUCounts[0] = 1 + r.Intn(2)
	}
	if r.Bool(0.3) {
		cfg.FetchBufferSize = r.Intn(16)
	}
	if r.Bool(0.2) && cfg.Width%2 == 0 && cfg.WindowSize%2 == 0 {
		cfg.Clusters = 2
		cfg.BypassLatency = 1 + r.Intn(2)
	}
	if r.Bool(0.3) {
		cfg.Hierarchy.ShortMissLatency = 4 + r.Intn(12)
		cfg.Hierarchy.LongMissLatency = 100 + r.Intn(200)
	}
	if r.Bool(0.3) {
		cfg.Hierarchy.L1I.SizeBytes = []uint64{2 << 10, 4 << 10, 8 << 10}[r.Intn(3)]
	}
	return cfg
}

// TestPropertyPrepCacheMatchesUncached is the cache-correctness property:
// Simulate through a shared PrepCache returns results identical to the
// uncached Simulate across randomized traces and configs. The cached runs
// execute concurrently on one cache, so -race also checks the
// single-flight sharing.
func TestPropertyPrepCacheMatchesUncached(t *testing.T) {
	pc := NewPrepCache()
	r := rng.New(42)
	type job struct {
		tr  *trace.Trace
		cfg Config
	}
	var jobs []job
	for seed := uint64(1); seed <= 4; seed++ {
		tr := randomTrace(seed, 3000)
		for k := 0; k < 6; k++ {
			jobs = append(jobs, job{tr: tr, cfg: randomConfig(r)})
		}
	}

	// Uncached references, sequentially.
	refs := make([]*Result, len(jobs))
	for i, j := range jobs {
		ref, err := Simulate(j.tr, j.cfg)
		if err != nil {
			t.Fatalf("job %d: uncached: %v", i, err)
		}
		refs[i] = ref
	}

	// Cached runs, concurrently on the shared cache.
	got := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = pc.Simulate(jobs[i].tr, jobs[i].cfg)
		}(i)
	}
	wg.Wait()

	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: cached: %v", i, errs[i])
		}
		if !reflect.DeepEqual(refs[i], got[i]) {
			t.Errorf("job %d: cached result differs from uncached\ncfg: %+v\ncached: %+v\nuncached: %+v",
				i, jobs[i].cfg, got[i], refs[i])
		}
	}

	hits, misses := pc.Stats()
	if hits+misses != int64(len(jobs)) {
		t.Errorf("stats account for %d requests, want %d", hits+misses, len(jobs))
	}
	if misses == 0 || misses == int64(len(jobs)) {
		t.Errorf("degenerate cache behavior: %d hits, %d misses", hits, misses)
	}
}

// TestPrepCacheNilDisablesCaching checks the nil receiver falls back to
// the plain simulator.
func TestPrepCacheNilDisablesCaching(t *testing.T) {
	tr := randomTrace(7, 2000)
	cfg := DefaultConfig()
	ref, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (*PrepCache)(nil).Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Error("nil-cache result differs from plain Simulate")
	}
}

// TestPrepCacheKeySensitivity pins down the classification key: mutating
// any timing-only field must re-use the cached classification (no new
// miss), and mutating any classification-relevant field must always miss.
func TestPrepCacheKeySensitivity(t *testing.T) {
	tr := randomTrace(9, 2000)
	base := DefaultConfig()
	tlb := cache.DefaultTLB()
	base.TLB = &tlb

	pc := NewPrepCache()
	if _, err := pc.Simulate(tr, base); err != nil {
		t.Fatal(err)
	}
	if _, misses := pc.Stats(); misses != 1 {
		t.Fatalf("priming run: %d misses, want 1", misses)
	}

	outside := map[string]func(*Config){
		"Width":               func(c *Config) { c.Width = 8 },
		"FrontEndDepth":       func(c *Config) { c.FrontEndDepth = 9 },
		"WindowSize":          func(c *Config) { c.WindowSize = 16 },
		"ROBSize":             func(c *Config) { c.ROBSize = 256 },
		"Latencies":           func(c *Config) { c.Latencies[1] = 7 },
		"FUCounts":            func(c *Config) { c.FUCounts[0] = 2 },
		"FetchBufferSize":     func(c *Config) { c.FetchBufferSize = 8 },
		"InOrder":             func(c *Config) { c.InOrder = true },
		"RecordIssueTrace":    func(c *Config) { c.RecordIssueTrace = true },
		"Clusters":            func(c *Config) { c.Clusters = 2; c.BypassLatency = 1 },
		"SerializeLongMisses": func(c *Config) { c.SerializeLongMisses = true },
		"IdealICache":         func(c *Config) { c.IdealICache = true },
		"IdealDCache":         func(c *Config) { c.IdealDCache = true },
		"IdealPredictor":      func(c *Config) { c.IdealPredictor = true },
		"ShortMissLatency":    func(c *Config) { c.Hierarchy.ShortMissLatency = 12 },
		"LongMissLatency":     func(c *Config) { c.Hierarchy.LongMissLatency = 300 },
		"TLB.MissLatency":     func(c *Config) { t := *c.TLB; t.MissLatency = 120; c.TLB = &t },
	}
	for name, mutate := range outside {
		cfg := base
		mutate(&cfg)
		_, missesBefore := pc.Stats()
		if _, err := pc.Simulate(tr, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, missesAfter := pc.Stats(); missesAfter != missesBefore {
			t.Errorf("timing-only field %s caused a classification cache miss", name)
		}
	}

	inside := map[string]func(*Config){
		"L1I.SizeBytes": func(c *Config) { c.Hierarchy.L1I.SizeBytes = 8 << 10 },
		"L1D.Assoc":     func(c *Config) { c.Hierarchy.L1D.Assoc = 2 },
		"L2.SizeBytes":  func(c *Config) { c.Hierarchy.L2.SizeBytes = 256 << 10 },
		"PredictorBits": func(c *Config) { c.PredictorBits = 10 },
		"Predictor":     func(c *Config) { c.Predictor = &predictor.Spec{Kind: predictor.KindBimodal, IndexBits: 13} },
		"Warmup":        func(c *Config) { c.Warmup = !c.Warmup },
		"TLB.Entries":   func(c *Config) { t := *c.TLB; t.Entries = 16; c.TLB = &t },
		"TLB removed":   func(c *Config) { c.TLB = nil },
	}
	for name, mutate := range inside {
		cfg := base
		mutate(&cfg)
		_, missesBefore := pc.Stats()
		if _, err := pc.Simulate(tr, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, missesAfter := pc.Stats(); missesAfter != missesBefore+1 {
			t.Errorf("classification field %s did not cause a cache miss (misses %d -> %d)",
				name, missesBefore, missesAfter)
		}
	}
}

// TestPrepCachePredictorBitsIrrelevantUnderSpec checks the key
// normalization: when an explicit predictor spec overrides the gshare
// default, PredictorBits is dead configuration and must not fragment the
// cache.
func TestPrepCachePredictorBitsIrrelevantUnderSpec(t *testing.T) {
	tr := randomTrace(11, 2000)
	spec := predictor.Spec{Kind: predictor.KindAlwaysTaken}
	cfg := DefaultConfig()
	cfg.Predictor = &spec

	pc := NewPrepCache()
	if _, err := pc.Simulate(tr, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.PredictorBits = 20
	if _, err := pc.Simulate(tr, cfg); err != nil {
		t.Fatal(err)
	}
	if _, misses := pc.Stats(); misses != 1 {
		t.Errorf("PredictorBits fragmented the key under an explicit spec: %d misses, want 1", misses)
	}
}

// TestPrepCacheSingleFlight hammers one (trace, key) slot from many
// goroutines: exactly one classification may happen, and every caller
// must observe the same result.
func TestPrepCacheSingleFlight(t *testing.T) {
	tr := randomTrace(13, 4000)
	pc := NewPrepCache()
	const callers = 16
	results := make([]*Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := DefaultConfig()
			// Different timing parameters, same classification key.
			cfg.Width = 1 + i%4
			cfg.IdealDCache = i%2 == 0
			results[i], errs[i] = pc.Simulate(tr, cfg)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
	}
	if _, misses := pc.Stats(); misses != 1 {
		t.Errorf("single-flight violated: %d classifications for one key", misses)
	}
}

// TestPrepCacheContentKeySharing checks content keying: two separately
// generated traces with the same recipe carry equal ContentIDs and share
// one classification entry, even though they are distinct allocations.
func TestPrepCacheContentKeySharing(t *testing.T) {
	t1, err := workload.Generate("gzip", 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := workload.Generate("gzip", 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if t1 == t2 {
		t.Fatal("expected distinct trace allocations")
	}
	if t1.ContentID == "" || t1.ContentID != t2.ContentID {
		t.Fatalf("content IDs %q vs %q, want equal and non-empty", t1.ContentID, t2.ContentID)
	}
	pc := NewPrepCache()
	cfg := DefaultConfig()
	r1, err := pc.Simulate(t1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := pc.Simulate(t2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("same-content traces produced different results")
	}
	hits, misses := pc.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("got %d hits, %d misses; want 1 hit, 1 miss (shared content entry)", hits, misses)
	}
	if preps := pc.Len(); preps != 1 {
		t.Errorf("cache holds %d classifications; want 1", preps)
	}
}

// TestPrepCacheBounded sweeps many distinct contents through a small
// cache and checks it respects its LRU bound.
func TestPrepCacheBounded(t *testing.T) {
	pc := newPrepCache(4)
	cfg := DefaultConfig()
	for seed := uint64(1); seed <= 12; seed++ {
		tr, err := workload.Generate("gzip", 1500, seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pc.Simulate(tr, cfg); err != nil {
			t.Fatal(err)
		}
		if preps := pc.Len(); preps > 4 {
			t.Fatalf("seed %d: cache grew past its bound (%d classifications)", seed, preps)
		}
	}
	// 12 contents through a bound of 4 evict 8 entries.
	if got := pc.Evictions(); got != 8 {
		t.Errorf("evictions = %d after the sweep, want 8", got)
	}
}

// TestPrepCacheForget checks Forget releases every entry derived from a
// trace — its classifications under every config — while leaving other
// traces' entries alone.
func TestPrepCacheForget(t *testing.T) {
	tr1, err := workload.Generate("gzip", 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := workload.Generate("gcc", 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPrepCache()
	cfgA := DefaultConfig()
	cfgB := DefaultConfig()
	cfgB.Warmup = !cfgB.Warmup
	for _, tr := range []*trace.Trace{tr1, tr2} {
		for _, cfg := range []Config{cfgA, cfgB} {
			if _, err := pc.Simulate(tr, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if preps := pc.Len(); preps != 4 {
		t.Fatalf("setup: %d classifications; want 4", preps)
	}
	pc.Forget(tr1)
	if preps := pc.Len(); preps != 2 {
		t.Errorf("after Forget: %d classifications; want 2", preps)
	}
	// The surviving trace still hits.
	_, missesBefore := pc.Stats()
	if _, err := pc.Simulate(tr2, cfgA); err != nil {
		t.Fatal(err)
	}
	if _, missesAfter := pc.Stats(); missesAfter != missesBefore {
		t.Error("Forget of one trace invalidated another trace's entries")
	}
}

// TestPrepCacheForgetCountsEvictions pins that entries released by
// Forget are counted as evictions, as the daemon's
// fomodeld_prep_cache_evictions_total ("LRU bound or trace eviction")
// promises.
func TestPrepCacheForgetCountsEvictions(t *testing.T) {
	tr, err := workload.Generate("gzip", 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPrepCache()
	cfgB := DefaultConfig()
	cfgB.Warmup = !cfgB.Warmup
	for _, cfg := range []Config{DefaultConfig(), cfgB} {
		if _, err := pc.Simulate(tr, cfg); err != nil {
			t.Fatal(err)
		}
	}
	pc.Forget(tr)
	if got := pc.Evictions(); got != 2 {
		t.Errorf("evictions = %d after Forget, want 2", got)
	}
}

// TestPrepCacheRejectsConfigErrorsFirst pins that a config Classify
// would fail on is rejected before the cache is consulted, so the
// cache never sees a classification error.
func TestPrepCacheRejectsConfigErrorsFirst(t *testing.T) {
	tr := randomTrace(5, 500)
	pc := NewPrepCache()
	for _, spec := range []predictor.Spec{
		{Kind: predictor.KindGshare, IndexBits: 0},
		{Kind: predictor.KindBimodal, IndexBits: 29},
		{Kind: predictor.Kind(99)},
	} {
		cfg := DefaultConfig()
		cfg.Predictor = &spec
		if _, err := pc.Simulate(tr, cfg); err == nil {
			t.Errorf("predictor %+v accepted", spec)
		}
	}
	if hits, misses := pc.Stats(); hits != 0 || misses != 0 {
		t.Errorf("rejected configs reached the cache: %d hits, %d misses", hits, misses)
	}
}

// TestPrepCacheStoreRoundTrip checks that a second cache attached to the
// same artifact store serves classifications from disk with results
// identical to the fresh computation. Classifications are the only
// artifacts the cache writes.
func TestPrepCacheStoreRoundTrip(t *testing.T) {
	st, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate("mcf", 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	tlb := cache.DefaultTLB()
	cfg.TLB = &tlb

	pc1 := NewPrepCache()
	pc1.SetStore(st)
	ref, err := pc1.Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, writes, _ := st.Stats(); writes != 1 {
		t.Fatalf("expected one preps artifact written, got %d writes", writes)
	}

	// A fresh cache (a new process, in effect) with the same store and a
	// freshly generated trace of the same content.
	tr2, err := workload.Generate("mcf", 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	pc2 := NewPrepCache()
	pc2.SetStore(st)
	hitsBefore, _, _, _, _ := st.Stats()
	got, err := pc2.Simulate(tr2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Error("store-served simulation differs from fresh computation")
	}
	hitsAfter, _, _, _, _ := st.Stats()
	if hitsAfter != hitsBefore+1 {
		t.Errorf("expected one preps store hit, got %d new hits", hitsAfter-hitsBefore)
	}
}

// TestPrepsCodecRoundTrip exercises the packed preps encoding across all
// flag combinations, plus its rejection of damaged payloads. The packed
// bytes are pinned: artifacts stored under the current classFormatVersion
// must keep decoding to the same events.
func TestPrepsCodecRoundTrip(t *testing.T) {
	var preps []stats.Event
	for ires := cache.Hit; ires <= cache.LongMiss; ires++ {
		for dres := cache.Hit; dres <= cache.LongMiss; dres++ {
			for _, misp := range []bool{false, true} {
				for _, tlbMiss := range []bool{false, true} {
					preps = append(preps, stats.NewEvent(ires, dres, misp, tlbMiss))
				}
			}
		}
	}
	enc := encodePreps(preps)
	want := []byte{
		'F', 'O', 'C', '1', 36, 0, 0, 0, 0, 0, 0, 0,
		0x00, 0x20, 0x10, 0x30, 0x04, 0x24, 0x14, 0x34, 0x08, 0x28, 0x18, 0x38,
		0x01, 0x21, 0x11, 0x31, 0x05, 0x25, 0x15, 0x35, 0x09, 0x29, 0x19, 0x39,
		0x02, 0x22, 0x12, 0x32, 0x06, 0x26, 0x16, 0x36, 0x0a, 0x2a, 0x1a, 0x3a,
	}
	if !bytes.Equal(enc, want) {
		t.Errorf("packed preps changed:\n got  % x\n want % x", enc, want)
	}
	dec, err := decodePreps(enc, len(preps))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(preps, dec) {
		t.Error("packed preps did not round-trip")
	}
	if _, err := decodePreps(enc, len(preps)+1); err == nil {
		t.Error("wrong expected length not rejected")
	}
	if _, err := decodePreps(enc[:len(enc)-1], len(preps)); err == nil {
		t.Error("truncated payload not rejected")
	}
	for _, b := range []byte{0x03, 0x0c, 0x40, 0x80, 0xff} {
		bad := append([]byte(nil), enc...)
		bad[12] = b
		if _, err := decodePreps(bad, len(preps)); err == nil {
			t.Errorf("invalid record byte 0x%02x not rejected", b)
		}
	}
}

// FuzzDecodePreps decodes arbitrary payloads, at the length their
// header claims and one off it. Decoding never panics; it rejects a
// record with bit 6 or 7 set or a cache result of 3; and every payload
// it accepts re-encodes to the same bytes.
func FuzzDecodePreps(f *testing.F) {
	f.Add(encodePreps([]stats.Event{0, 0x01, 0x3a}))
	f.Add(encodePreps(nil))
	f.Add([]byte{'F', 'O', 'C', '1', 2, 0, 0, 0, 0, 0, 0, 0, 0x03, 0x40})
	f.Add([]byte{'F', 'O', 'C', '1', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		want := 0
		if len(data) >= 12 {
			want = int(binary.LittleEndian.Uint64(data[4:12]) & (1<<31 - 1))
		}
		for _, n := range []int{want, want + 1} {
			preps, err := decodePreps(data, n)
			if err != nil {
				continue
			}
			for i, b := range data[12:] {
				if b>>6 != 0 || b&3 == 3 || b>>2&3 == 3 {
					t.Fatalf("record %d (0x%02x) accepted", i, b)
				}
			}
			if len(preps) != n {
				t.Fatalf("decoded %d records, want %d", len(preps), n)
			}
			if enc := encodePreps(preps); !bytes.Equal(enc, data) {
				t.Fatalf("accepted payload re-encodes differently:\n got  % x\n want % x", enc, data)
			}
		}
	})
}

// TestPrepCacheSimulateAllocs pins a warm PrepCache.Simulate at two
// allocations — the Result and its IssueHistogram. Every per-run buffer
// of the timing pass, the scheduler's included, comes from the scratch
// pool; the configs reach the clustered, in-order, overflow and
// single-issue paths.
func TestPrepCacheSimulateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	tr, err := workload.Generate("mcf", 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	clustered := DefaultConfig()
	clustered.Clusters, clustered.BypassLatency = 2, 1
	inOrder := DefaultConfig()
	inOrder.InOrder = true
	far := DefaultConfig()
	far.Hierarchy.LongMissLatency = 5000
	tlb := cache.DefaultTLB()
	far.TLB = &tlb
	narrow := DefaultConfig()
	narrow.Width = 1
	pc := NewPrepCache()
	for name, cfg := range map[string]Config{
		"base": DefaultConfig(), "clustered": clustered, "in-order": inOrder, "past-horizon": far, "width-1": narrow,
	} {
		if _, err := pc.Simulate(tr, cfg); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := pc.Simulate(tr, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Errorf("%s: %v allocations per warm run, want 2 (the Result and its histogram)", name, allocs)
		}
	}
}

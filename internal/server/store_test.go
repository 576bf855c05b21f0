package server

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fomodel/internal/artifact"
	"fomodel/internal/experiments"
	"fomodel/internal/iw"
	"fomodel/internal/stats"
	"fomodel/internal/workload"
)

// openTestStore opens an artifact store in a per-test directory.
func openTestStore(t *testing.T, dir string) *artifact.Store {
	t.Helper()
	st, err := artifact.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// storeRequests is the request set the round-trip properties run: the
// default path, a non-default seed (the dedicated trace cache), a
// machine override (a distinct analysis key), and a simulator run (the
// prep-cache artifacts).
var storeRequests = []string{
	`{"bench": "gzip"}`,
	`{"bench": "gzip", "seed": 3}`,
	`{"bench": "mcf", "machine": {"rob": 64}}`,
	`{"bench": "gcc", "seed": 3, "sim": true}`,
}

// TestStoreRoundTripByteIdentical is the round-trip property of the
// tentpole: a fresh server process booting on a warm artifact store must
// produce /v1/predict bodies byte-identical to both the server that
// wrote the store and a server with no store at all.
func TestStoreRoundTripByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cold := testServer(Config{N: 8000})
	writer := testServer(Config{N: 8000, Store: openTestStore(t, dir)})

	want := make([]string, len(storeRequests))
	for i, body := range storeRequests {
		rec := post(writer, "/v1/predict", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("writer request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		want[i] = rec.Body.String()

		rec = post(cold, "/v1/predict", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("storeless request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if rec.Body.String() != want[i] {
			t.Errorf("request %d: store-writing server and storeless server disagree", i)
		}
	}
	if _, _, _, writes, _ := writer.cfg.Store.Stats(); writes == 0 {
		t.Fatal("warm pass wrote no artifacts")
	}

	// A fresh process: new server, new store handle, same directory.
	reader := testServer(Config{N: 8000, Store: openTestStore(t, dir)})
	for i, body := range storeRequests {
		rec := post(reader, "/v1/predict", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("reader request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if rec.Body.String() != want[i] {
			t.Errorf("request %d: store-served body differs from fresh computation\nwant: %s\ngot:  %s",
				i, want[i], rec.Body.String())
		}
	}
	hits, _, _, _, _ := reader.cfg.Store.Stats()
	if hits == 0 {
		t.Error("fresh server on a warm store served nothing from it")
	}
}

// TestStoreCorruptionRecomputes damages every stored artifact and checks
// a fresh server detects the damage (checksum or framing), recomputes,
// and still answers byte-identically.
func TestStoreCorruptionRecomputes(t *testing.T) {
	dir := t.TempDir()
	writer := testServer(Config{N: 8000, Store: openTestStore(t, dir)})
	const reqBody = `{"bench": "gzip", "seed": 3, "sim": true}`
	rec := post(writer, "/v1/predict", reqBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("writer: status %d: %s", rec.Code, rec.Body.String())
	}
	want := rec.Body.String()

	files, err := filepath.Glob(filepath.Join(dir, "*.foa"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no artifacts on disk (%v)", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xff // flip a bit mid-file: key, payload, or checksum
		if err := os.WriteFile(f, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reader := testServer(Config{N: 8000, Store: openTestStore(t, dir)})
	rec = post(reader, "/v1/predict", reqBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("reader: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Body.String() != want {
		t.Error("recomputed response differs from the original")
	}
	if _, _, corrupt, _, _ := reader.cfg.Store.Stats(); corrupt == 0 {
		t.Error("no artifact was flagged corrupt despite damaging every file")
	}
}

// TestTraceCacheBounded sweeps many non-default seeds through a small
// trace cache and checks the server's footprint stays bounded: the trace
// LRU respects its capacity and evicted traces release the prep-cache
// entries they pinned.
func TestTraceCacheBounded(t *testing.T) {
	s := testServer(Config{N: 8000, TraceCacheEntries: 4})
	traces, analyses := s.suite.Caches()
	for seed := uint64(2); seed <= 21; seed++ {
		body := fmt.Sprintf(`{"bench": "gzip", "n": 2000, "seed": %d, "sim": true}`, seed)
		rec := post(s, "/v1/predict", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, rec.Code, rec.Body.String())
		}
		if got := traces.Len(); got > 4 {
			t.Fatalf("seed %d: trace cache grew to %d entries (cap 4)", seed, got)
		}
		if preps := s.suite.Preps().Len(); preps > 5 {
			t.Fatalf("seed %d: prep cache holds %d classifications — evicted traces did not release them",
				seed, preps)
		}
	}
	if _, _, evictions := traces.Stats(); evictions == 0 {
		t.Error("20-seed sweep through a 4-entry cache evicted nothing")
	}
	// The sweep's analyses are content-keyed and bounded too.
	if got := analyses.Len(); got > 20 {
		t.Errorf("analysis cache holds %d entries", got)
	}
}

// TestRegisteredDefaultTracesBounded pins that the trace bound holds at
// the default (n, seed) too: registered workloads predicted there with
// a simulation share the one bounded trace cache, and each evicted
// trace releases its prep-cache entries, so a caller registering many
// workloads cannot pin their traces and preps in memory.
func TestRegisteredDefaultTracesBounded(t *testing.T) {
	s := testServer(Config{N: 8000, TraceCacheEntries: 4})
	traces, _ := s.suite.Caches()
	for i, base := range workload.Names()[:8] {
		name := fmt.Sprintf("wl%d", i)
		register(t, s, name, profileJSON(t, base, name), "")
		if rec := post(s, "/v1/predict", fmt.Sprintf(`{"bench":%q,"sim":true}`, name)); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body.String())
		}
		if got := traces.Len(); got > 4 {
			t.Fatalf("%s: trace cache grew to %d entries (cap 4)", name, got)
		}
		if preps := s.suite.Preps().Len(); preps > 5 {
			t.Fatalf("%s: prep cache holds %d classifications: the traces they belong to were never released", name, preps)
		}
	}
}

// TestRequestBodyTooLarge pins the 413 contract: a body over the
// endpoint's bound is an explicit 413 naming the limit, never a silent
// truncation misreported as malformed JSON — even when the oversized
// body's prefix would parse.
func TestRequestBodyTooLarge(t *testing.T) {
	s := testServer(Config{})
	pad := strings.Repeat(" ", MaxBodyBytes)
	cases := []struct {
		name, path, body string
		limit            int
	}{
		{"predict oversized", "/v1/predict", `{"bench": "gzip"` + strings.Repeat(" ", MaxBodyBytes) + `}`, MaxBodyBytes},
		{"predict valid prefix", "/v1/predict", `{"bench": "gzip"}` + pad, MaxBodyBytes},
		{"sweep oversized", "/v1/sweep", `{"param": "width"` + pad + `}`, MaxBodyBytes},
		{"batch oversized", "/v1/batch", `{"items": [{"bench": "gzip"}]}` + strings.Repeat(" ", MaxBatchBodyBytes), MaxBatchBodyBytes},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(s, tc.path, tc.body)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413; body: %s", rec.Code, rec.Body.String())
			}
			msg := errorBody(t, rec)
			if want := fmt.Sprintf("%d-byte limit", tc.limit); !strings.Contains(msg, want) {
				t.Errorf("error %q does not name the limit %q", msg, want)
			}
		})
	}
	// At the limit is still fine.
	small := `{"bench": "gzip", "n": 2000}`
	body := small + strings.Repeat(" ", MaxBodyBytes-len(small))
	if rec := post(s, "/v1/predict", body); rec.Code != http.StatusOK {
		t.Errorf("exactly-at-limit body rejected: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestStoreGobAnalysisRecomputes covers the switch from gob to the
// binary analysis codec: a format-1 (gob) payload found under an
// analysis key must read as a miss, and the daemon must recompute the
// analysis, answer byte-identically and overwrite the payload with one
// the current codec decodes.
func TestStoreGobAnalysisRecomputes(t *testing.T) {
	const reqBody = `{"bench": "gzip"}`
	want := post(testServer(Config{N: 8000}), "/v1/predict", reqBody)
	if want.Code != http.StatusOK {
		t.Fatalf("storeless: status %d: %s", want.Code, want.Body.String())
	}

	machine, err := MachineSpec{}.Machine()
	if err != nil {
		t.Fatal(err)
	}
	ucfg, err := MachineSpec{}.SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	scfg := predictStatsConfig(machine, ucfg)
	tr, err := workload.Generate("gzip", 8000, 1)
	if err != nil {
		t.Fatal(err)
	}
	an, err := experiments.AnalyzeAndStore(nil, tr, iw.DefaultWindows(), scfg)
	if err != nil {
		t.Fatal(err)
	}
	// The version-1 payload: gob of the artifact's fields. A mirror type
	// without the binary methods keeps gob from delegating to them.
	type gobArtifact struct {
		Points  []iw.Point
		Law     iw.PowerLaw
		Summary *stats.Summary
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(gobArtifact{an.Points, an.Law, an.Summary}); err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, t.TempDir())
	key := experiments.AnalysisKey(workload.ContentID("gzip", 8000, 1), iw.DefaultWindows(), scfg)
	if err := st.Put("analysis", key, buf.Bytes()); err != nil {
		t.Fatal(err)
	}

	s := testServer(Config{N: 8000, Store: st})
	rec := post(s, "/v1/predict", reqBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Body.String() != want.Body.String() {
		t.Errorf("body after a gob payload differs from the storeless body\nwant: %s\ngot:  %s",
			want.Body.String(), rec.Body.String())
	}
	if _, ok := experiments.LookupAnalysis(st, workload.ContentID("gzip", 8000, 1), 8000, iw.DefaultWindows(), scfg); !ok {
		t.Error("the recomputed analysis was not written back in the current format")
	}
}

// storeKinds counts the artifact files in dir by kind.
func storeKinds(t *testing.T, dir string) map[string]int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.foa"))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, f := range files {
		kind, _, _ := strings.Cut(filepath.Base(f), "-")
		kinds[kind]++
	}
	return kinds
}

// TestColdModelPredictWritesOnlyAnalysis pins the store traffic of a
// cold model-only predict on a non-default seed: two lookups (the
// analysis, then the trace), both misses, and one write — the analysis.
// The trace is never read back on that path, so it is not stored; a
// simulating predict still stores its trace and its classification, and
// nothing else: the simulator keeps no per-trace producer links.
func TestColdModelPredictWritesOnlyAnalysis(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	s := testServer(Config{N: 8000, Store: st})

	if rec := post(s, "/v1/predict", `{"bench": "gzip", "seed": 7}`); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if hits, misses, corrupt, writes, _ := st.Stats(); hits != 0 || misses != 2 || corrupt != 0 || writes != 1 {
		t.Errorf("store stats after one cold predict = (hits %d, misses %d, corrupt %d, writes %d), want (0, 2, 0, 1)",
			hits, misses, corrupt, writes)
	}
	if got := storeKinds(t, dir); len(got) != 1 || got["analysis"] != 1 {
		t.Errorf("artifacts on disk = %v, want one analysis", got)
	}

	if rec := post(s, "/v1/predict", `{"bench": "mcf", "seed": 7, "sim": true}`); rec.Code != http.StatusOK {
		t.Fatalf("sim: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := storeKinds(t, dir); len(got) != 3 || got["trace"] != 1 || got["analysis"] != 2 || got["preps"] == 0 {
		t.Errorf("artifacts on disk after a sim predict = %v, want its trace, analysis and preps added, and nothing else", got)
	}
}

// TestStoreWithLegacyProducerLinks opens a store that an older binary
// filled with "prods" artifacts — the per-trace producer links its
// simulator kept, in their "FOP1" encoding — and checks that simulating
// predicts are answered byte-identically to a storeless daemon's, both
// fresh and after a restart, and that the legacy files are neither read
// nor touched.
func TestStoreWithLegacyProducerLinks(t *testing.T) {
	reqs := []struct {
		bench string
		seed  uint64
	}{{"gzip", 1}, {"mcf", 7}}
	dir := t.TempDir()
	st := openTestStore(t, dir)
	for _, r := range reqs {
		tr, err := workload.Generate(r.bench, 8000, r.seed)
		if err != nil {
			t.Fatal(err)
		}
		// The old binary's encoding: magic, count, then the two source
		// producers of each instruction as int32s. The daemon never
		// reads the links, so every one is -1 (no producer).
		buf := binary.LittleEndian.AppendUint64([]byte("FOP1"), uint64(tr.Len()))
		for range 2 * tr.Len() {
			buf = binary.LittleEndian.AppendUint32(buf, ^uint32(0))
		}
		if err := st.Put("prods", workload.ContentID(r.bench, 8000, r.seed), buf); err != nil {
			t.Fatal(err)
		}
	}
	legacy := storeKinds(t, dir)["prods"]
	ref := testServer(Config{N: 8000})
	for restart := range 2 {
		s := testServer(Config{N: 8000, Store: openTestStore(t, dir)})
		for _, r := range reqs {
			body := fmt.Sprintf(`{"bench": %q, "seed": %d, "sim": true}`, r.bench, r.seed)
			want := post(ref, "/v1/predict", body)
			got := post(s, "/v1/predict", body)
			if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
				t.Errorf("restart %d, %s seed %d: status %d, body differs from the storeless daemon's:\n got  %s\n want %s",
					restart, r.bench, r.seed, got.Code, got.Body.String(), want.Body.String())
			}
		}
	}
	if got := storeKinds(t, dir); got["prods"] != legacy || got["preps"] == 0 {
		t.Errorf("artifacts on disk = %v, want the %d legacy prods files untouched beside new preps", got, legacy)
	}
}

// TestStorePutErrorsCounted removes the store directory under a running
// daemon: every write then fails, the daemon keeps answering
// byte-identically, and the failures show on /metrics.
func TestStorePutErrorsCounted(t *testing.T) {
	const reqBody = `{"bench": "gzip", "seed": 9}`
	want := post(testServer(Config{N: 8000}), "/v1/predict", reqBody)
	dir := t.TempDir()
	s := testServer(Config{N: 8000, Store: openTestStore(t, dir)})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	rec := post(s, "/v1/predict", reqBody)
	if rec.Code != http.StatusOK || rec.Body.String() != want.Body.String() {
		t.Fatalf("status %d, body differs from the storeless one: %s", rec.Code, rec.Body.String())
	}
	if got := s.cfg.Store.PutErrors(); got != 1 {
		t.Errorf("PutErrors = %d, want 1", got)
	}
	if m := get(s, "/metrics").Body.String(); !strings.Contains(m, "fomodeld_artifact_store_put_errors_total 1\n") {
		t.Error("/metrics does not report the failed write")
	}
}

package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"fomodel/internal/artifact"
	"fomodel/internal/iw"
	"fomodel/internal/stats"
	"fomodel/internal/trace"
	"fomodel/internal/workload"
)

// This file binds the experiment pipeline to the persistent artifact
// store (internal/artifact): the two expensive, deterministic
// per-benchmark preparation steps — trace generation and the analysis
// pass (IW characteristic, power-law fit, miss statistics) — are read
// from the store when a valid artifact exists and written back after a
// fresh computation. Everything here is content-keyed: a trace by its
// generation recipe (workload.ContentID), an analysis by the recipe plus
// the projection of the analysis configuration that determines its
// output. A nil store disables persistence and every function degrades
// to plain computation.

// analysisFormatVersion versions the analysis artifact payloads; part of
// every analysis key, so schema changes invalidate instead of
// misinterpreting.
const analysisFormatVersion = 1

// AnalysisArtifact bundles the derived per-trace model inputs that
// /v1/predict and the experiment suite both consume: the measured IW
// characteristic, its power-law fit, and the functional miss statistics.
// All fields are exported and gob-serializable, and gob round-trips
// float64 bits exactly, so a store-served artifact yields responses
// byte-identical to a fresh computation.
type AnalysisArtifact struct {
	Points  []iw.Point
	Law     iw.PowerLaw
	Summary *stats.Summary
}

// valid checks a decoded artifact against the trace it claims to
// describe, rejecting stale or mismatched payloads.
func (a *AnalysisArtifact) valid(t *trace.Trace, windows []int) bool {
	return a.Summary != nil &&
		a.Summary.Instructions == t.Len() &&
		len(a.Points) == len(windows)
}

// AnalysisKey builds the canonical content key of an analysis artifact:
// the trace's content identity, the window sweep, and the projection of
// the stats configuration. Pointer fields are dereferenced so the key
// reflects configuration values, never addresses.
func AnalysisKey(contentID string, windows []int, scfg stats.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "a%d|%s|w=%v|h=%+v|pb=%d|lat=%v|rob=%d|bbh=%d|warm=%t",
		analysisFormatVersion, contentID, windows, scfg.Hierarchy,
		scfg.PredictorBits, scfg.Latencies, scfg.ROBSize,
		scfg.BranchBurstHorizon, scfg.Warmup)
	if scfg.Predictor != nil {
		fmt.Fprintf(&b, "|pred=%+v", *scfg.Predictor)
	}
	if scfg.TLB != nil {
		fmt.Fprintf(&b, "|tlb=%+v", *scfg.TLB)
	}
	return b.String()
}

// LookupAnalysis returns the stored analysis bundle for a generation
// recipe without materializing its trace — the daemon's restart fast
// path: a model-only prediction needs the bundle, not the instructions.
// The content key pins the recipe (name, n, seed, generator version) and
// the store's checksum pins the bytes, so a decodable, shape-valid
// artifact is trustworthy without the trace at hand. ok is false when no
// valid artifact exists (nil store included); callers then load the
// trace and use ComputeAnalysis.
func LookupAnalysis(store *artifact.Store, contentID string, n int, windows []int, scfg stats.Config) (*AnalysisArtifact, bool) {
	if store == nil || contentID == "" {
		return nil, false
	}
	b, ok := store.Get("analysis", AnalysisKey(contentID, windows, scfg))
	if !ok {
		return nil, false
	}
	var a AnalysisArtifact
	if artifact.DecodeGob(b, &a) != nil || a.Summary == nil ||
		a.Summary.Instructions < n || len(a.Points) != len(windows) {
		return nil, false
	}
	return &a, true
}

// ComputeAnalysis returns the analysis bundle of t under scfg, serving
// it from the store when possible. Results are identical either way:
// the artifact is a pure function of the trace content and the
// configuration projection in its key.
func ComputeAnalysis(store *artifact.Store, t *trace.Trace, windows []int, scfg stats.Config) (*AnalysisArtifact, error) {
	key := ""
	if t.ContentID != "" && store != nil {
		key = AnalysisKey(t.ContentID, windows, scfg)
		if b, ok := store.Get("analysis", key); ok {
			var a AnalysisArtifact
			if artifact.DecodeGob(b, &a) == nil && a.valid(t, windows) {
				return &a, nil
			}
		}
	}
	points, err := iw.Characteristic(t, windows, iw.Options{})
	if err != nil {
		return nil, err
	}
	law, err := iw.Fit(points)
	if err != nil {
		return nil, err
	}
	sum, err := stats.Analyze(t, scfg)
	if err != nil {
		return nil, err
	}
	a := &AnalysisArtifact{Points: points, Law: law, Summary: sum}
	if key != "" {
		if b, err := artifact.EncodeGob(a); err == nil {
			store.Put("analysis", key, b)
		}
	}
	return a, nil
}

// LoadOrGenerateTrace returns the (name, n, seed) trace, reading its
// serialized form (the binary trace format of internal/trace) from the
// store when a valid artifact exists and generating + storing it
// otherwise. The returned trace always carries its ContentID.
func LoadOrGenerateTrace(store *artifact.Store, name string, n int, seed uint64) (*trace.Trace, error) {
	id := workload.ContentID(name, n, seed)
	if b, ok := store.Get("trace", id); ok {
		if t, err := trace.Read(bytes.NewReader(b)); err == nil && t.Name == name && t.Len() >= n {
			t.ContentID = id
			return t, nil
		}
		// A structurally valid trace for the wrong recipe (or a decode
		// failure): fall through and regenerate.
	}
	t, err := workload.Generate(name, n, seed)
	if err != nil {
		return nil, err
	}
	if store != nil {
		if b, err := trace.Encode(t); err == nil {
			store.Put("trace", id, b)
		}
	}
	return t, nil
}

// LoadOrGenerateProfileTrace is LoadOrGenerateTrace for an explicit
// (registered) profile. The content key is the profile's name-free
// CustomContentID, so two names registered with identical numeric
// content share one stored trace; the trace's Name is restamped to the
// profile's on a hit, because the stored copy may have been produced
// under a different name for the same content.
func LoadOrGenerateProfileTrace(store *artifact.Store, prof workload.Profile, n int, seed uint64) (*trace.Trace, error) {
	id := workload.CustomContentID(prof.ContentHash(), n, seed)
	if b, ok := store.Get("trace", id); ok {
		if t, err := trace.Read(bytes.NewReader(b)); err == nil && t.Len() >= n {
			t.Name = prof.Name
			t.ContentID = id
			return t, nil
		}
	}
	t, err := workload.GenerateProfile(prof, n, seed)
	if err != nil {
		return nil, err
	}
	if store != nil {
		if b, err := trace.Encode(t); err == nil {
			store.Put("trace", id, b)
		}
	}
	return t, nil
}

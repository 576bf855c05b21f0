package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"fomodel/internal/artifact"
	"fomodel/internal/core"
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
// fresh computation (a trace only when its caller asks for it to
// persist: Suite.Trace does, a transient analysis trace does not).
// Everything here is content-keyed: a trace by its generation recipe
// (workload.ContentID), an analysis by the recipe plus
// the projection of the analysis configuration that determines its
// output. A nil store disables persistence and every function degrades
// to plain computation.

// analysisFormatVersion versions the analysis artifact payloads; part of
// every analysis key, so schema changes invalidate instead of
// misinterpreting. The payload layout is in codec.go.
const analysisFormatVersion = 2

// AnalysisArtifact bundles the derived per-trace model inputs that
// /v1/predict and the experiment suite both consume: the measured IW
// characteristic, its power-law fit, and the functional miss statistics.
// MarshalBinary and UnmarshalBinary (codec.go) round-trip every field,
// float64 bits included, so a store-served artifact yields responses
// byte-identical to a fresh computation.
type AnalysisArtifact struct {
	Points  []iw.Point
	Law     iw.PowerLaw
	Summary *stats.Summary
}

// Estimate is the model half of every prediction (predicts, sweep
// cells and optimize evaluations all call it): the equation-(1) inputs
// and CPI stack for machine on this analysis. The long-miss and TLB-miss
// groupings are regrouped for machine.ROBSize when the summary was taken
// at another ROB, which gives exactly what a fresh analysis at that ROB
// does (Summary.WithROB), and the inputs are derived at
// machine.WindowSize.
func (a *AnalysisArtifact) Estimate(machine core.Machine, opts core.Options) (core.Inputs, core.Estimate, error) {
	sum := a.Summary
	if sum.ROBSize != machine.ROBSize {
		sum = sum.WithROB(machine.ROBSize)
	}
	in, err := core.InputsFromCurve(a.Law, a.Points, machine.WindowSize, sum)
	if err != nil {
		return core.Inputs{}, core.Estimate{}, err
	}
	est, err := machine.Estimate(in, opts)
	return in, est, err
}

// AnalysisKey builds the canonical content key of an analysis artifact:
// the trace's content identity, the window sweep, and the projection of
// the stats configuration. Pointer fields are dereferenced so the key
// reflects configuration values, never addresses. The key still carries
// the ROB size although Summary.WithROB can regroup any artifact for
// another ROB: the fleet-store benchmark relies on its 96 keys (12
// workloads × 8 ROB sizes) overflowing each replica's analysis cache.
func AnalysisKey(contentID string, windows []int, scfg stats.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "a%d|%s|w=%v|h=%+v|pb=%d|lat=%v|rob=%d|warm=%t",
		analysisFormatVersion, contentID, windows, scfg.Hierarchy,
		scfg.PredictorBits, scfg.Latencies, scfg.ROBSize, scfg.Warmup)
	if scfg.Predictor != nil {
		fmt.Fprintf(&b, "|pred=%+v", *scfg.Predictor)
	}
	if scfg.TLB != nil {
		fmt.Fprintf(&b, "|tlb=%+v", *scfg.TLB)
	}
	return b.String()
}

// LookupAnalysis returns the stored analysis bundle for a generation
// recipe without materializing its trace — the restart fast path: a
// model-only prediction needs the bundle, not the instructions. The
// content key pins the recipe (name, n, seed, generator version) and
// the store's checksum pins the bytes, so a decodable artifact of the
// right shape is trustworthy without the trace at hand: a summary of
// at least n instructions (a lower bound, because the generator
// finishes its last basic block past the requested length) and one
// point per window. ok is false on a miss (nil store included), a
// payload that does not decode (an older format included), or a wrong
// shape; callers then load the trace and use AnalyzeAndStore.
func LookupAnalysis(store *artifact.Store, contentID string, n int, windows []int, scfg stats.Config) (*AnalysisArtifact, bool) {
	if store == nil || contentID == "" {
		return nil, false
	}
	b, ok := store.Get("analysis", AnalysisKey(contentID, windows, scfg))
	if !ok {
		return nil, false
	}
	var a AnalysisArtifact
	if a.UnmarshalBinary(b) != nil || a.Summary.Instructions < n || len(a.Points) != len(windows) {
		return nil, false
	}
	return &a, true
}

// AnalyzeAndStore computes the analysis bundle of t under scfg and
// writes it to the store (when t has a content ID), without reading the
// store first: Suite.Analyze calls it after LookupAnalysis has already
// missed on the same key. A nil store only computes. The bundle is a
// pure function of the trace content and the configuration projection
// in its key, so a stored and a computed bundle are identical.
func AnalyzeAndStore(store *artifact.Store, t *trace.Trace, windows []int, scfg stats.Config) (*AnalysisArtifact, error) {
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
	if t.ContentID != "" && store != nil {
		if b, err := a.MarshalBinary(); err == nil {
			store.Put("analysis", AnalysisKey(t.ContentID, windows, scfg), b)
		}
	}
	return a, nil
}

// LoadOrGenerateTrace returns the (name, n, seed) trace, reading its
// serialized form (the binary trace format of internal/trace) from the
// store when a valid artifact exists and generating it otherwise; a
// generated trace is written to the store when persist is set. The
// returned trace always carries its ContentID.
func LoadOrGenerateTrace(store *artifact.Store, name string, n int, seed uint64, persist bool) (*trace.Trace, error) {
	id := workload.ContentID(name, n, seed)
	return loadOrGenerate(store, id, n, persist, func(t *trace.Trace) bool { return t.Name == name },
		func() (*trace.Trace, error) { return workload.Generate(name, n, seed) })
}

// LoadOrGenerateProfileTrace is LoadOrGenerateTrace for an explicit
// (registered) profile. The content key is the profile's name-free
// CustomContentID, so two names registered with identical numeric
// content share one stored trace; the trace's Name is restamped to the
// profile's on a hit, because the stored copy may have been produced
// under a different name for the same content.
func LoadOrGenerateProfileTrace(store *artifact.Store, prof workload.Profile, n int, seed uint64, persist bool) (*trace.Trace, error) {
	id := workload.CustomContentID(prof.ContentHash(), n, seed)
	return loadOrGenerate(store, id, n, persist, func(t *trace.Trace) bool { t.Name = prof.Name; return true },
		func() (*trace.Trace, error) { return workload.GenerateProfile(prof, n, seed) })
}

// loadOrGenerate is the one trace loader behind both. A stored trace
// under id is served when it holds at least n instructions and adopt,
// which checks it against the recipe and restamps its name, returns
// true; otherwise generate runs, and its trace is stored when persist is
// set.
func loadOrGenerate(store *artifact.Store, id string, n int, persist bool,
	adopt func(*trace.Trace) bool, generate func() (*trace.Trace, error)) (*trace.Trace, error) {
	if b, ok := store.Get("trace", id); ok {
		if t, err := trace.Read(bytes.NewReader(b)); err == nil && t.Len() >= n && adopt(t) {
			t.ContentID = id
			return t, nil
		}
		// A structurally valid trace for the wrong recipe (or a decode
		// failure): fall through and regenerate.
	}
	t, err := generate()
	if err != nil {
		return nil, err
	}
	if persist && store != nil {
		if b, err := trace.Encode(t); err == nil {
			store.Put("trace", id, b)
		}
	}
	return t, nil
}

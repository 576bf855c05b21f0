package server

import (
	"fomodel/internal/experiments"
	"fomodel/internal/optimize"
	"fomodel/internal/reqkey"
)

// This file is the daemon's half of the shared canonical-key contract
// (see internal/reqkey): every response-cache key the daemon uses is
// derived through the exported functions below, and the fomodelproxy
// router calls the very same functions to pick a replica — so the key a
// request is routed by and the key the replica caches it under are one
// string by construction.

// PredictCacheKey canonicalizes one predict request against the given
// defaults: the request is normalized (defaults filled, inputs
// validated, registered names resolved to content hashes) and the
// normalized value keyed, so spelling differences — omitted versus
// explicit defaults — collapse to one key. The returned error is the
// same 400-shaped validation error the daemon would produce.
func PredictCacheKey(req PredictRequest, d reqkey.Defaults) (string, error) {
	if err := req.Normalize(d); err != nil {
		return "", err
	}
	return reqkey.Canonical("predict", req)
}

// contentVector maps a bench-name list onto the content hashes of its
// registered entries, positionally: built-in names map to "". It
// returns nil — and the caller keys the bare spec, byte-identical to a
// registry-less server — when no name resolves through the registry,
// which is what keeps every pre-registry cache key stable.
func contentVector(benches []string, res reqkey.Resolver) []string {
	var out []string
	for i, b := range benches {
		hash, err := reqkey.Content(res, b)
		if err != nil || hash == "" {
			continue // built-in, or unknown and rejected by validation
		}
		if out == nil {
			out = make([]string, len(benches))
		}
		out[i] = hash
	}
	return out
}

// keyedSweep is a sweep spec plus the content vector of its registered
// benches; embedding inlines the spec's fields, so a nil vector
// marshals byte-identically to the bare spec.
type keyedSweep struct {
	experiments.SweepSpec
	Content []string `json:"content,omitempty"`
}

// SweepCacheKey canonicalizes one sweep spec. Sweeps have no
// server-side defaults to fill; decoding the JSON into the typed spec
// and re-encoding it is the canonicalization, plus — for specs naming
// registered workloads — the positional content-hash vector that makes
// re-registered content a different key.
func SweepCacheKey(spec experiments.SweepSpec, d reqkey.Defaults) (string, error) {
	return reqkey.Canonical("sweep", keyedSweep{
		SweepSpec: spec,
		Content:   contentVector(spec.Benches, d.Resolver),
	})
}

// keyedOptimize is an optimize spec plus the content vector of its
// registered mix entries, mirroring keyedSweep.
type keyedOptimize struct {
	optimize.Spec
	Content []string `json:"content,omitempty"`
}

// OptimizeCacheKey canonicalizes one optimize spec against the given
// defaults: the spec is normalized (defaults filled, inputs validated,
// registered names accepted through the resolver) and the normalized
// value keyed with its content vector — shared, like every key in this
// file's contract, with the fomodelproxy router's replica selection.
func OptimizeCacheKey(spec optimize.Spec, d reqkey.Defaults) (string, error) {
	if err := spec.Normalize(d); err != nil {
		return "", err
	}
	benches := make([]string, len(spec.Workloads))
	for i, w := range spec.Workloads {
		benches[i] = w.Bench
	}
	return reqkey.Canonical("optimize", keyedOptimize{
		Spec:    spec,
		Content: contentVector(benches, d.Resolver),
	})
}

// WorkloadItemKey canonicalizes one named-workload registration
// (GET /v1/workloads/{name}); the router routes reads by it so a name's
// lookups concentrate on one replica.
func WorkloadItemKey(name string) (string, error) {
	return reqkey.Canonical("workload", name)
}

// WorkloadsCacheKey is the single cache key of the parameterless
// /v1/workloads endpoint.
const WorkloadsCacheKey = "workloads"

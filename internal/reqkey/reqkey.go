// Package reqkey defines the canonical request key shared by the
// fomodeld daemon and the fomodelproxy router. The daemon's response
// cache and the proxy's consistent-hash ring both key on the exact
// string this package produces, so a request routed by the proxy always
// lands on the replica whose cache the daemon itself would fill for it —
// the property the whole cache-aware serving topology depends on. The
// key derivation lives here, in one package with no serving
// dependencies, so the two sides can never drift apart.
package reqkey

import (
	"encoding/json"

	"fomodel/internal/workload"
)

// Resolver maps a registered workload name to its current profile
// content hash. The daemon's registry implements it directly and the
// proxy implements it with a replicated name→hash mirror, so both
// sides embed the same content hash in the canonical key: a name whose
// registered content changed yields a new key (no stale results),
// while the same content under any name shares one key.
type Resolver interface {
	// WorkloadContent returns the content hash registered under name,
	// or ok=false when the name is not registered.
	WorkloadContent(name string) (hash string, ok bool)
}

// Content resolves a workload name the way every canonical key does: a
// built-in profile carries no content hash (""), a name res reports
// registered carries its profile's hash, and any other name is an error
// (workload.ByName's). A nil res resolves built-ins only. It is the one
// "is this name known, and with what content?" check shared by request
// normalization, validation and content-vector keying.
func Content(res Resolver, name string) (string, error) {
	if workload.IsBuiltin(name) {
		return "", nil
	}
	if res != nil {
		if hash, ok := res.WorkloadContent(name); ok {
			return hash, nil
		}
	}
	_, err := workload.ByName(name)
	return "", err
}

// Defaults are the server-side request defaults that participate in
// canonicalization: a request that omits n or seed and a request that
// spells them out explicitly must map to one key, so both the daemon and
// the proxy normalize against the same defaults before keying. The
// values mirror fomodeld's -n and -seed flags.
type Defaults struct {
	// N is the default dynamic instruction count per workload.
	N int
	// Seed is the default workload generation seed.
	Seed uint64
	// Resolver resolves registered workload names during
	// normalization; nil means only built-in names resolve.
	Resolver Resolver
}

// StandardDefaults are the daemon's flag defaults (-n 500000 -seed 1);
// a proxy configured with matching flags shares the daemon's keyspace.
func StandardDefaults() Defaults {
	return Defaults{N: 500000, Seed: 1}
}

// WithFallback fills zero fields from StandardDefaults.
func (d Defaults) WithFallback() Defaults {
	std := StandardDefaults()
	if d.N == 0 {
		d.N = std.N
	}
	if d.Seed == 0 {
		d.Seed = std.Seed
	}
	return d
}

// Canonical derives the canonical request key for one endpoint and its
// normalized, typed request value: requests that normalize to the same
// typed value share one key regardless of their original JSON spelling.
// The encoding is the endpoint name, a NUL separator (which cannot occur
// in JSON output), and the compact JSON encoding of v — deterministic
// because encoding/json emits struct fields in declaration order.
func Canonical(endpoint string, v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return endpoint + "\x00" + string(b), nil
}

// Raw keys a request body that cannot be canonicalized — one the daemon
// will reject, or one whose typed decoding failed — by its exact bytes.
// It is deterministic (the same malformed body always maps to the same
// key) without the proxy having to replicate the daemon's validation,
// and the "raw:" prefix keeps the fallback keyspace disjoint from
// Canonical's, whose endpoint names never contain a colon.
func Raw(endpoint string, body []byte) string {
	return "raw:" + endpoint + "\x00" + string(body)
}

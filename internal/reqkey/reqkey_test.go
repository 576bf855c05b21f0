package reqkey

import (
	"strings"
	"testing"
)

// TestCanonicalFormat pins the key encoding: endpoint, NUL, compact
// JSON in struct-field order. The daemon's response cache stored keys in
// exactly this shape before the derivation moved here; changing it would
// silently split proxy and daemon keyspaces.
func TestCanonicalFormat(t *testing.T) {
	type req struct {
		Bench string `json:"bench"`
		N     int    `json:"n,omitempty"`
	}
	key, err := Canonical("predict", req{Bench: "gzip", N: 500000})
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	want := "predict\x00{\"bench\":\"gzip\",\"n\":500000}"
	if key != want {
		t.Errorf("key = %q, want %q", key, want)
	}
	if !strings.HasPrefix(key, "predict\x00") {
		t.Errorf("key %q should start with the endpoint and a NUL", key)
	}
}

// TestCanonicalDeterministic pins that equal values give equal keys and
// different values different keys.
func TestCanonicalDeterministic(t *testing.T) {
	type req struct {
		Bench string `json:"bench"`
	}
	a, _ := Canonical("predict", req{Bench: "gzip"})
	b, _ := Canonical("predict", req{Bench: "gzip"})
	c, _ := Canonical("predict", req{Bench: "mcf"})
	d, _ := Canonical("sweep", req{Bench: "gzip"})
	if a != b {
		t.Errorf("equal values keyed differently: %q vs %q", a, b)
	}
	if a == c {
		t.Errorf("different values share key %q", a)
	}
	if a == d {
		t.Errorf("different endpoints share key %q", a)
	}
}

// TestCanonicalError pins that unmarshalable values fail rather than
// producing a partial key.
func TestCanonicalError(t *testing.T) {
	if _, err := Canonical("predict", make(chan int)); err == nil {
		t.Error("Canonical over a channel should fail")
	}
}

// TestDefaultsWithFallback pins the flag-default parity with fomodeld.
func TestDefaultsWithFallback(t *testing.T) {
	d := Defaults{}.WithFallback()
	if d.N != 500000 || d.Seed != 1 {
		t.Errorf("fallback defaults = %+v, want N=500000 Seed=1", d)
	}
	d = Defaults{N: 20000, Seed: 7}.WithFallback()
	if d.N != 20000 || d.Seed != 7 {
		t.Errorf("explicit defaults overwritten: %+v", d)
	}
}

// mapResolver is a Resolver over a fixed name → hash table.
type mapResolver map[string]string

func (m mapResolver) WorkloadContent(name string) (string, bool) {
	hash, ok := m[name]
	return hash, ok
}

// TestContent pins the one resolution rule: built-ins carry no hash
// (even when a resolver also knows the name), registered names carry
// theirs, and anything else is workload.ByName's error.
func TestContent(t *testing.T) {
	res := mapResolver{"mine": "abc", "gzip": "shadow"}
	cases := []struct {
		res      Resolver
		name     string
		hash     string
		errMatch string
	}{
		{nil, "gzip", "", ""},
		{res, "gzip", "", ""},
		{res, "mine", "abc", ""},
		{nil, "mine", "", "unknown profile"},
		{res, "nope", "", "unknown profile"},
	}
	for _, tc := range cases {
		hash, err := Content(tc.res, tc.name)
		if hash != tc.hash {
			t.Errorf("Content(%v, %q) hash = %q, want %q", tc.res, tc.name, hash, tc.hash)
		}
		if (err == nil) != (tc.errMatch == "") || (err != nil && !strings.Contains(err.Error(), tc.errMatch)) {
			t.Errorf("Content(%v, %q) err = %v, want %q", tc.res, tc.name, err, tc.errMatch)
		}
	}
}

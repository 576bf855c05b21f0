package workload

import (
	"strings"
	"testing"
)

// FuzzReadProfile hardens the JSON profile decoder: arbitrary input must
// produce either an error or a profile that validates and generates a
// structurally valid trace.
func FuzzReadProfile(f *testing.F) {
	var sb strings.Builder
	if err := WriteProfile(&sb, baseProfile("seed")); err != nil {
		f.Fatal(err)
	}
	f.Add(sb.String())
	f.Add(`{}`)
	f.Add(`{"name":"x"}`)
	f.Add(`{"name":"x","mix":{"alu":1}}`)
	f.Add(`not json`)
	// Sizes that once passed Validate and crashed generation.
	for _, mutate := range []func(*Profile){
		func(p *Profile) { p.DataHotSize = 1 << 63 },
		func(p *Profile) { p.NumBlocks = 1 << 32 },
	} {
		p := baseProfile("seed")
		mutate(&p)
		var sb strings.Builder
		if err := WriteProfile(&sb, p); err != nil {
			f.Fatal(err)
		}
		f.Add(sb.String())
	}

	f.Fuzz(func(t *testing.T, data string) {
		p, err := ReadProfile(strings.NewReader(data))
		if err != nil {
			return
		}
		g, err := NewGenerator(p, 1)
		if err != nil {
			t.Fatalf("validated profile rejected by generator: %v", err)
		}
		tr, err := g.Generate(500)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("generated trace invalid: %v", err)
		}
	})
}

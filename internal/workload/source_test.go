package workload

import (
	"testing"

	"fomodel/internal/isa"
)

// sourceCases counts which branch of sourceAt a checked distance took.
type sourceCases struct {
	beforeTrace, neverWritten, pastHorizon, beyondRing, hit int
}

// checkSources compares, at g's current state, the O(1) source lookup
// with the binary search over the producer ring for every distance up to
// past the write-count ring and for a few far ones, and tallies the
// cases the distances reached.
func checkSources(t *testing.T, g *Generator, cases *sourceCases) {
	t.Helper()
	far := []int{writeRing + 1, 2 * writeRing, 1000, 5000, 1 << 20}
	for dist := 1; dist <= writeRing+len(far); dist++ {
		d := dist
		if dist > writeRing {
			d = far[dist-writeRing-1]
		}
		want := g.dynIdx - int64(d)
		got, oracle := g.sourceAt(d), g.searchSource(want)
		if got != oracle {
			t.Fatalf("instruction %d (%d writes), distance %d: lookup gives register %d, search %d",
				g.dynIdx, g.writes, d, got, oracle)
		}
		switch {
		case want < 0:
			cases.beforeTrace++
		case d > writeRing:
			cases.beyondRing++
		case g.writesAt[want&(writeRing-1)] == 0:
			cases.neverWritten++
		case g.writes-g.writesAt[want&(writeRing-1)] >= isa.NumArchRegs:
			cases.pastHorizon++
		default:
			cases.hit++
		}
	}
}

// generateChecked generates at least n instructions from g one block at
// a time, checking the source lookup at every block boundary.
func generateChecked(t *testing.T, g *Generator, n int, cases *sourceCases) {
	t.Helper()
	checkSources(t, g, cases)
	for g.dynIdx < int64(n) {
		tr, err := g.Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		checkSources(t, g, cases)
	}
}

// longStoreHeavyProfile is a registered-style profile that reaches every
// case of the lookup: dependences far older than the write-count ring,
// and so few destination writes that such old producers are still in
// the register ring.
func longStoreHeavyProfile() Profile {
	p := baseProfile("long-store-heavy")
	p.Mix = mix(0.1, 0, 0, 0, 0.1, 0.8)
	p.BlockLenMean = 12
	p.DepShortFrac = 0.3
	p.DepLongAlpha = 0.3
	p.DepLongMax = 5000
	return p
}

// TestSourceLookupMatchesSearch checks the write-count lookup against
// the binary search it replaces, on every built-in profile and on a
// long-dependence, store-heavy profile that reaches the never-written,
// past-horizon and beyond-ring cases.
func TestSourceLookupMatchesSearch(t *testing.T) {
	n := 4000
	if testing.Short() {
		n = 1000
	}
	for _, p := range append(Profiles(), longStoreHeavyProfile()) {
		t.Run(p.Name, func(t *testing.T) {
			var cases sourceCases
			for seed := uint64(1); seed <= 3; seed++ {
				generateChecked(t, mustGen(t, p, seed), n, &cases)
			}
			if cases.hit == 0 || cases.pastHorizon == 0 || cases.beforeTrace == 0 {
				t.Fatalf("cases %+v: a common case went unchecked", cases)
			}
			if p.Name == "long-store-heavy" && (cases.neverWritten == 0 || cases.beyondRing == 0) {
				t.Fatalf("cases %+v: the rare cases went unchecked", cases)
			}
		})
	}
}

// FuzzGenerateSources varies the dependence and mix fields of a profile
// and checks the source lookup against the binary search while
// generating.
func FuzzGenerateSources(f *testing.F) {
	f.Add(uint64(1), uint8(64), uint8(153), uint8(115), uint16(32), uint8(22), uint16(199),
		uint8(42), uint8(8), uint8(1), uint8(2), uint8(30), uint8(17))
	f.Add(uint64(7), uint8(0), uint8(0), uint8(255), uint16(0), uint8(0), uint16(4999),
		uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(255))
	f.Add(uint64(3), uint8(255), uint8(255), uint8(0), uint16(65535), uint8(255), uint16(0),
		uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, noDep, shortFrac, twoSrc uint8, shortMean uint16,
		longAlpha uint8, longMax uint16, alu, mul, div, fpu, load, store uint8) {
		p := baseProfile("fuzz")
		p.NoDepFrac = float64(noDep) / 255
		p.DepShortFrac = float64(shortFrac) / 255
		p.TwoSrcFrac = float64(twoSrc) / 255
		p.DepShortMean = 1 + float64(shortMean)/64
		p.DepLongAlpha = float64(1+int(longAlpha)) / 64
		p.DepLongMax = 1 + int(longMax)
		p.Mix = mix(float64(alu), float64(mul), float64(div), float64(fpu), float64(load), float64(store))
		g, err := NewGenerator(p, seed)
		if err != nil {
			return // a mix with no weight
		}
		generateChecked(t, g, 600, &sourceCases{})
	})
}

package predictor

import (
	"testing"

	"fomodel/internal/rng"
)

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	for i := 0; i < 10; i++ {
		c = c.update(false)
	}
	if c != 0 {
		t.Fatalf("counter underflowed to %d", c)
	}
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 {
		t.Fatalf("counter %d, want saturated 3", c)
	}
	if !c.taken() {
		t.Fatal("saturated counter predicts not-taken")
	}
}

func TestNewGshareValidation(t *testing.T) {
	if _, err := NewGshare(0); err == nil {
		t.Fatal("0 bits accepted")
	}
	if _, err := NewGshare(40); err == nil {
		t.Fatal("40 bits accepted")
	}
	g, err := NewGshare(13)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.table) != 8192 {
		t.Fatalf("table size %d, want 8192", len(g.table))
	}
}

// TestSpecValidateMatchesNew pins that Validate rejects exactly the
// specs New fails on, with the same message.
func TestSpecValidateMatchesNew(t *testing.T) {
	for kind := Kind(0); kind <= KindAlwaysNotTaken+1; kind++ {
		for _, bits := range []uint{0, 1, 13, 29} {
			s := Spec{Kind: kind, IndexBits: bits}
			_, newErr := s.New()
			err := s.Validate()
			if (err == nil) != (newErr == nil) || (err != nil && err.Error() != newErr.Error()) {
				t.Errorf("%+v: Validate() = %v, New() error = %v", s, err, newErr)
			}
		}
	}
}

func TestGshareLearnsBias(t *testing.T) {
	g := DefaultGshare()
	var stats Stats
	// A single always-taken branch must be predicted nearly perfectly
	// after warmup.
	for i := 0; i < 1000; i++ {
		pred := g.Predict(0x4000)
		g.Update(0x4000, true)
		if i >= 10 {
			stats.Record(pred, true)
		}
	}
	if stats.MispredictRate() > 0.01 {
		t.Fatalf("mispredict rate %v on constant branch", stats.MispredictRate())
	}
}

func TestGshareLearnsAlternatingPattern(t *testing.T) {
	// T,N,T,N... is perfectly predictable with global history.
	g := DefaultGshare()
	var stats Stats
	for i := 0; i < 4000; i++ {
		taken := i%2 == 0
		pred := g.Predict(0x4000)
		g.Update(0x4000, taken)
		if i >= 200 {
			stats.Record(pred, taken)
		}
	}
	if stats.MispredictRate() > 0.02 {
		t.Fatalf("mispredict rate %v on alternating branch", stats.MispredictRate())
	}
}

func TestGshareRandomBranchNearHalf(t *testing.T) {
	g := DefaultGshare()
	r := rng.New(1)
	var stats Stats
	for i := 0; i < 20000; i++ {
		taken := r.Bool(0.5)
		pred := g.Predict(0x4000)
		g.Update(0x4000, taken)
		stats.Record(pred, taken)
	}
	if rate := stats.MispredictRate(); rate < 0.35 || rate > 0.65 {
		t.Fatalf("random branch mispredict rate %v, want ~0.5", rate)
	}
}

func TestGshareSeparatesBranches(t *testing.T) {
	// Two opposite-biased branches at different PCs with a fixed
	// interleaving must both be learned.
	g := DefaultGshare()
	var stats Stats
	for i := 0; i < 4000; i++ {
		for _, br := range []struct {
			pc    uint64
			taken bool
		}{{0x1000, true}, {0x2000, false}} {
			pred := g.Predict(br.pc)
			g.Update(br.pc, br.taken)
			if i >= 100 {
				stats.Record(pred, br.taken)
			}
		}
	}
	if stats.MispredictRate() > 0.02 {
		t.Fatalf("mispredict rate %v on two biased branches", stats.MispredictRate())
	}
}

func TestBimodal(t *testing.T) {
	b, err := NewBimodal(12)
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	for i := 0; i < 1000; i++ {
		pred := b.Predict(0x1234)
		b.Update(0x1234, true)
		if i > 10 {
			stats.Record(pred, true)
		}
	}
	if stats.Mispredicts != 0 {
		t.Fatalf("bimodal mispredicted constant branch %d times", stats.Mispredicts)
	}
	if _, err := NewBimodal(0); err == nil {
		t.Fatal("0 bits accepted")
	}
}

func TestStatic(t *testing.T) {
	s := Static{Taken: true}
	if !s.Predict(0) {
		t.Fatal("always-taken predicted not-taken")
	}
	s.Update(0, false) // no-op
	if !s.Predict(0) {
		t.Fatal("static predictor changed")
	}
	if (Static{Taken: true}).Name() == (Static{}).Name() {
		t.Fatal("static names collide")
	}
}

func TestIdeal(t *testing.T) {
	var p Ideal
	for _, taken := range []bool{true, false, true} {
		p.SetOutcome(taken)
		if p.Predict(0x10) != taken {
			t.Fatal("oracle mispredicted")
		}
		p.Update(0x10, taken)
	}
	if p.Name() != "ideal" {
		t.Fatal("name wrong")
	}
}

func TestStats(t *testing.T) {
	var s Stats
	if s.MispredictRate() != 0 {
		t.Fatal("empty stats rate non-zero")
	}
	s.Record(true, true)
	s.Record(true, false)
	if s.Branches != 2 || s.Mispredicts != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.MispredictRate() != 0.5 {
		t.Fatalf("rate %v", s.MispredictRate())
	}
}

func TestNames(t *testing.T) {
	if DefaultGshare().Name() != "gshare-8k" {
		t.Fatalf("gshare name %q", DefaultGshare().Name())
	}
	b, err := NewBimodal(13)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "bimodal-8k" {
		t.Fatalf("bimodal name %q", b.Name())
	}
}

// Interface conformance checks.
var (
	_ Predictor = (*Gshare)(nil)
	_ Predictor = (*Bimodal)(nil)
	_ Predictor = Static{}
	_ Predictor = (*Ideal)(nil)
)

func TestSpec(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		name string
	}{
		{Spec{Kind: KindGshare, IndexBits: 13}, "gshare-8k"},
		{Spec{Kind: KindBimodal, IndexBits: 13}, "bimodal-8k"},
		{Spec{Kind: KindAlwaysTaken}, "always-taken"},
		{Spec{Kind: KindAlwaysNotTaken}, "always-not-taken"},
	} {
		p, err := tc.spec.New()
		if err != nil {
			t.Fatalf("%v: %v", tc.spec, err)
		}
		if p.Name() != tc.name {
			t.Errorf("spec %v built %q, want %q", tc.spec, p.Name(), tc.name)
		}
	}
	if _, err := (Spec{Kind: Kind(99)}).New(); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := (Spec{Kind: KindGshare}).New(); err == nil {
		t.Fatal("gshare with zero bits accepted")
	}
	if DefaultSpec().Kind != KindGshare || DefaultSpec().IndexBits != 13 {
		t.Fatalf("default spec %+v", DefaultSpec())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindGshare: "gshare", KindBimodal: "bimodal",
		KindAlwaysTaken: "always-taken", KindAlwaysNotTaken: "always-not-taken",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind empty string")
	}
}

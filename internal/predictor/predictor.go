// Package predictor implements the branch direction predictors used by the
// simulators: the paper's 8K-entry gshare, plus bimodal, static, and ideal
// predictors for the "everything ideal" configurations and for baselines.
package predictor

import "fmt"

// Predictor predicts conditional branch directions. Predict returns the
// predicted direction for the branch at pc; Update trains the predictor
// with the actual outcome. Implementations are deterministic and not safe
// for concurrent use.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved outcome of the branch
	// at pc.
	Update(pc uint64, taken bool)
	// Name identifies the predictor for reports.
	Name() string
}

// Kind selects a predictor family for Spec.
type Kind int

const (
	// KindGshare is the paper's global-history predictor.
	KindGshare Kind = iota
	// KindBimodal is a PC-indexed counter table.
	KindBimodal
	// KindAlwaysTaken and KindAlwaysNotTaken are static predictors.
	KindAlwaysTaken
	KindAlwaysNotTaken
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindGshare:
		return "gshare"
	case KindBimodal:
		return "bimodal"
	case KindAlwaysTaken:
		return "always-taken"
	case KindAlwaysNotTaken:
		return "always-not-taken"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Spec describes a predictor configuration that can be instantiated
// repeatedly (the functional analyzer and the simulator each need a fresh
// instance trained from scratch).
type Spec struct {
	Kind Kind
	// IndexBits sizes the table for gshare/bimodal; ignored by the
	// static predictors.
	IndexBits uint
}

// DefaultSpec returns the paper's 8K gshare.
func DefaultSpec() Spec { return Spec{Kind: KindGshare, IndexBits: 13} }

// Validate reports the error New would return, without allocating a
// table.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindGshare, KindBimodal:
		if s.IndexBits == 0 || s.IndexBits > 28 {
			return fmt.Errorf("predictor: %v index bits %d out of range [1,28]", s.Kind, s.IndexBits)
		}
	case KindAlwaysTaken, KindAlwaysNotTaken:
	default:
		return fmt.Errorf("predictor: unknown kind %d", int(s.Kind))
	}
	return nil
}

// New instantiates a fresh, untrained predictor from the spec.
func (s Spec) New() (Predictor, error) {
	switch s.Kind {
	case KindGshare:
		return NewGshare(s.IndexBits)
	case KindBimodal:
		return NewBimodal(s.IndexBits)
	case KindAlwaysTaken:
		return Static{Taken: true}, nil
	case KindAlwaysNotTaken:
		return Static{}, nil
	default:
		return nil, fmt.Errorf("predictor: unknown kind %d", int(s.Kind))
	}
}

// counter is a 2-bit saturating counter; values 0..1 predict not-taken,
// 2..3 predict taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Gshare is the classic global-history predictor: the PC is XORed with a
// global history register to index a table of 2-bit counters. The paper's
// baseline is an 8K-entry (13-bit index) gshare.
type Gshare struct {
	table     []counter
	history   uint64
	histBits  uint
	indexMask uint64
}

// NewGshare builds a gshare with 2^indexBits counters and indexBits of
// global history.
func NewGshare(indexBits uint) (*Gshare, error) {
	if indexBits == 0 || indexBits > 28 {
		return nil, fmt.Errorf("predictor: gshare index bits %d out of range [1,28]", indexBits)
	}
	g := &Gshare{
		table:     make([]counter, 1<<indexBits),
		histBits:  indexBits,
		indexMask: 1<<indexBits - 1,
	}
	// Weakly taken initial state converges quickly either way.
	for i := range g.table {
		g.table[i] = 2
	}
	return g, nil
}

// DefaultGshare returns the paper's 8K-entry gshare.
func DefaultGshare() *Gshare {
	g, err := NewGshare(13)
	if err != nil {
		// 13 is statically valid; reaching here is a programming error.
		panic(err)
	}
	return g
}

func (g *Gshare) index(pc uint64) uint64 {
	// Drop the instruction alignment bits so neighbouring branches spread
	// across the table.
	return ((pc >> 2) ^ g.history) & g.indexMask
}

// Predict returns the predicted direction for pc.
func (g *Gshare) Predict(pc uint64) bool { return g.table[g.index(pc)].taken() }

// Update trains the counter and shifts the outcome into the history.
func (g *Gshare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].update(taken)
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.history &= g.indexMask
}

// Name identifies the predictor.
func (g *Gshare) Name() string { return fmt.Sprintf("gshare-%dk", len(g.table)/1024) }

// Bimodal is a PC-indexed table of 2-bit counters with no history.
type Bimodal struct {
	table     []counter
	indexMask uint64
}

// NewBimodal builds a bimodal predictor with 2^indexBits counters.
func NewBimodal(indexBits uint) (*Bimodal, error) {
	if indexBits == 0 || indexBits > 28 {
		return nil, fmt.Errorf("predictor: bimodal index bits %d out of range [1,28]", indexBits)
	}
	b := &Bimodal{table: make([]counter, 1<<indexBits), indexMask: 1<<indexBits - 1}
	for i := range b.table {
		b.table[i] = 2
	}
	return b, nil
}

// Predict returns the predicted direction for pc.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[(pc>>2)&b.indexMask].taken() }

// Update trains the counter for pc.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := (pc >> 2) & b.indexMask
	b.table[i] = b.table[i].update(taken)
}

// Name identifies the predictor.
func (b *Bimodal) Name() string { return fmt.Sprintf("bimodal-%dk", len(b.table)/1024) }

// Static predicts a fixed direction for every branch.
type Static struct {
	// Taken is the constant prediction.
	Taken bool
}

// Predict returns the constant direction.
func (s Static) Predict(uint64) bool { return s.Taken }

// Update is a no-op for a static predictor.
func (s Static) Update(uint64, bool) {}

// Name identifies the predictor.
func (s Static) Name() string {
	if s.Taken {
		return "always-taken"
	}
	return "always-not-taken"
}

// Ideal is an oracle: the simulator feeds it the actual outcome through
// SetOutcome before asking for the prediction. It never mispredicts.
type Ideal struct {
	next bool
}

// SetOutcome primes the oracle with the actual direction of the branch
// about to be predicted.
func (i *Ideal) SetOutcome(taken bool) { i.next = taken }

// Predict returns the primed outcome.
func (i *Ideal) Predict(uint64) bool { return i.next }

// Update is a no-op for the oracle.
func (i *Ideal) Update(uint64, bool) {}

// Name identifies the predictor.
func (i *Ideal) Name() string { return "ideal" }

// Stats accumulates prediction accuracy over a run.
type Stats struct {
	Branches    uint64
	Mispredicts uint64
}

// Record notes one predicted/actual pair.
func (s *Stats) Record(predicted, actual bool) {
	s.Branches++
	if predicted != actual {
		s.Mispredicts++
	}
}

// MispredictRate returns Mispredicts/Branches, or 0 with no branches.
func (s *Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

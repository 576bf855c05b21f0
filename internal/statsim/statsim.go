// Package statsim implements statistical simulation — the alternative
// methodology the paper positions itself against (related work [8-11]:
// Carl & Smith, Nussbaum & Smith, Eeckhout et al., Noonburg & Shen).
//
// Statistical simulation collects the same program statistics the
// first-order model consumes — instruction mix, dependence-distance
// distribution, miss-event rates and their clustering — but instead of
// evaluating closed-form penalty equations, it synthesizes a short random
// trace exhibiting those statistics and runs it through a (simple) timing
// simulator. The paper's claim is that its model "performs statistical
// simulation, without the simulation, and overall accuracy is similar";
// this package exists so the repository can test that claim head-to-head
// (experiments.StatSimStudy).
//
// The profile is measured entirely from a trace (Measure), and synthesis
// (Profile.Synthesize) produces both a register-accurate instruction
// stream and the per-instruction miss events for uarch.SimulateWithEvents:
//
//   - classes i.i.d. from the measured mix;
//   - source operands present with the measured per-slot frequencies, at
//     dependence distances drawn from the measured histogram (realized
//     exactly via round-robin destination allocation);
//   - branch mispredictions Bernoulli at the measured per-branch rate;
//   - I-cache misses Bernoulli per instruction at the measured rates;
//   - data-cache outcomes from a two-state Markov chain over memory
//     accesses fitted to the measured long-miss run structure, preserving
//     the burstiness that drives the overlap behaviour of §4.3;
//   - data-TLB misses Bernoulli per memory access, at the rate measured
//     for accesses with the same long-miss outcome, when the
//     configuration has a TLB: a page the TLB misses is usually one the
//     caches miss too, and a TLB miss drawn apart from the long misses
//     would overlap nothing they do.
package statsim

import (
	"fmt"

	"fomodel/internal/cache"
	"fomodel/internal/isa"
	"fomodel/internal/rng"
	"fomodel/internal/stats"
	"fomodel/internal/trace"
	"fomodel/internal/uarch"
)

// maxDepDistance caps the measured dependence-distance histogram; longer
// dependences are ready by the time the consumer dispatches on any
// realistic window, so they are recorded as absent.
const maxDepDistance = 256

// Profile holds the statistics measured from a trace — deliberately the
// same information base as the first-order model's inputs.
type Profile struct {
	// Name identifies the source workload.
	Name string
	// Mix is the instruction-class composition.
	Mix [isa.NumClasses]float64

	// Src1Frac and Src2Frac are the fractions of instructions with a
	// first and second register source within the distance cap.
	Src1Frac, Src2Frac float64
	// DistHist[d-1] is the probability that a present source's producer
	// is d dynamic instructions back (d in [1, maxDepDistance]).
	DistHist []float64

	// MispredictPerBranch is the misprediction probability per branch.
	MispredictPerBranch float64
	// ICacheShortPerInstr / ICacheLongPerInstr are fetch miss
	// probabilities per instruction.
	ICacheShortPerInstr float64
	ICacheLongPerInstr  float64

	// Data-cache outcome chain over memory accesses: PLongAfterLong and
	// PLongAfterOther give the probability the next access is a long
	// miss conditioned on the previous access's outcome (captures
	// burstiness); PShort is the unconditional short-miss probability
	// among non-long accesses.
	PLongAfterLong  float64
	PLongAfterOther float64
	PShort          float64

	// TLBMissPerLongMiss and TLBMissPerOtherAccess are the data-TLB miss
	// probabilities of a memory access that misses L2 and of any other
	// memory access; both are zero when the configuration has no TLB.
	TLBMissPerLongMiss    float64
	TLBMissPerOtherAccess float64
}

// Measure extracts a statistical profile from t using the same cache
// hierarchy, predictor, and warmup convention as the reference analyses.
func Measure(t *trace.Trace, cfg uarch.Config) (*Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("statsim: empty trace %q", t.Name)
	}
	p := &Profile{
		Name:     t.Name,
		Mix:      t.Mix(),
		DistHist: make([]float64, maxDepDistance),
	}

	// Dependence structure: distance from each source to the most recent
	// writer of that register.
	var lastWriter [isa.NumArchRegs]int
	for i := range lastWriter {
		lastWriter[i] = -1 << 40
	}
	var src1, src2, distTotal int
	for i := range t.Instrs {
		in := &t.Instrs[i]
		for slot, src := range [2]int16{in.Src1, in.Src2} {
			if src < 0 {
				continue
			}
			d := i - lastWriter[src]
			if d >= 1 && d <= maxDepDistance {
				p.DistHist[d-1]++
				distTotal++
				if slot == 0 {
					src1++
				} else {
					src2++
				}
			}
		}
		if in.Dest >= 0 {
			lastWriter[in.Dest] = i
		}
	}
	n := float64(t.Len())
	p.Src1Frac = float64(src1) / n
	p.Src2Frac = float64(src2) / n
	if distTotal > 0 {
		for d := range p.DistHist {
			p.DistHist[d] /= float64(distTotal)
		}
	}

	// Miss events from the reference simulator's own functional pass.
	events, err := uarch.Classify(t, cfg)
	if err != nil {
		return nil, err
	}
	var branches, misp, iShort, iLong uint64
	var memAccesses, shortMisses, longMisses uint64
	var tlbLong, tlbOther uint64
	var longAfterLong, longAfterOther, afterLong, afterOther uint64
	prevLong := false
	for i, ev := range events {
		switch ev.ICache() {
		case cache.ShortMiss:
			iShort++
		case cache.LongMiss:
			iLong++
		}
		switch t.Instrs[i].Class {
		case isa.Branch:
			branches++
			if ev.Mispredict() {
				misp++
			}
		case isa.Load, isa.Store:
			memAccesses++
			long := ev.DCache() == cache.LongMiss
			if prevLong {
				afterLong++
				if long {
					longAfterLong++
				}
			} else {
				afterOther++
				if long {
					longAfterOther++
				}
			}
			if ev.DCache() == cache.ShortMiss {
				shortMisses++
			}
			switch {
			case long:
				longMisses++
				if ev.TLBMiss() {
					tlbLong++
				}
			case ev.TLBMiss():
				tlbOther++
			}
			prevLong = long
		}
	}
	if branches > 0 {
		p.MispredictPerBranch = float64(misp) / float64(branches)
	}
	p.ICacheShortPerInstr = float64(iShort) / n
	p.ICacheLongPerInstr = float64(iLong) / n
	if afterLong > 0 {
		p.PLongAfterLong = float64(longAfterLong) / float64(afterLong)
	}
	if afterOther > 0 {
		p.PLongAfterOther = float64(longAfterOther) / float64(afterOther)
	}
	if memAccesses > 0 {
		p.PShort = float64(shortMisses) / float64(memAccesses)
	}
	if longMisses > 0 {
		p.TLBMissPerLongMiss = float64(tlbLong) / float64(longMisses)
	}
	if others := memAccesses - longMisses; others > 0 {
		p.TLBMissPerOtherAccess = float64(tlbOther) / float64(others)
	}
	return p, nil
}

// Synthesize generates a random trace of n instructions exhibiting the
// profile's statistics, together with the per-instruction miss events for
// uarch.SimulateWithEvents.
func (p *Profile) Synthesize(n int, seed uint64) (*trace.Trace, []stats.Event, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("statsim: length %d must be positive", n)
	}
	if len(p.DistHist) == 0 {
		return nil, nil, fmt.Errorf("statsim: profile %q has no dependence histogram", p.Name)
	}
	classRNG := rng.NewStream(seed, 0x11)
	depRNG := rng.NewStream(seed, 0x12)
	evRNG := rng.NewStream(seed, 0x13)
	tlbRNG := rng.NewStream(seed, 0x14)

	mixWeights := make([]float64, isa.NumClasses)
	for c := range p.Mix {
		mixWeights[c] = p.Mix[c]
	}

	t := &trace.Trace{Name: p.Name + "-synth", Instrs: make([]trace.Instruction, 0, n)}
	events := make([]stats.Event, 0, n)

	var producers [isa.NumArchRegs]int
	for i := range producers {
		producers[i] = -1
	}
	nextDest := int16(0)
	prevLong := false

	for i := 0; i < n; i++ {
		c := isa.Class(classRNG.Weighted(mixWeights))
		in := trace.Instruction{
			PC:    0x40_0000,
			Class: c,
			Dest:  isa.RegNone,
			Src1:  isa.RegNone,
			Src2:  isa.RegNone,
		}
		if depRNG.Bool(p.Src1Frac) {
			in.Src1 = p.sampleSource(depRNG, &producers, nextDest, i)
		}
		if depRNG.Bool(p.Src2Frac) {
			in.Src2 = p.sampleSource(depRNG, &producers, nextDest, i)
		}
		if c != isa.Store && c != isa.Branch {
			in.Dest = nextDest
			producers[nextDest] = i
			nextDest++
			if nextDest >= isa.NumArchRegs {
				nextDest = 0
			}
		}

		var ires, dres cache.Result
		var misp, tlbMiss bool
		switch {
		case evRNG.Bool(p.ICacheShortPerInstr):
			ires = cache.ShortMiss
		case evRNG.Bool(p.ICacheLongPerInstr):
			ires = cache.LongMiss
		}
		switch c {
		case isa.Branch:
			in.Taken = evRNG.Bool(0.5)
			misp = evRNG.Bool(p.MispredictPerBranch)
		case isa.Load, isa.Store:
			pl := p.PLongAfterOther
			if prevLong {
				pl = p.PLongAfterLong
			}
			if evRNG.Bool(pl) {
				dres = cache.LongMiss
				prevLong = true
			} else {
				prevLong = false
				if evRNG.Bool(p.PShort) {
					dres = cache.ShortMiss
				}
			}
			// TLB misses draw from their own stream, and only at a
			// nonzero rate, so the other events stay what they are
			// without a TLB.
			pt := p.TLBMissPerOtherAccess
			if dres == cache.LongMiss {
				pt = p.TLBMissPerLongMiss
			}
			if pt > 0 {
				tlbMiss = tlbRNG.Bool(pt)
			}
		}
		t.Instrs = append(t.Instrs, in)
		events = append(events, stats.NewEvent(ires, dres, misp, tlbMiss))
	}
	return t, events, nil
}

// sampleSource draws a register realizing a dependence at a distance from
// the measured histogram, using the round-robin producer ring: the
// producer k destination-writes back holds register (nextDest-1-k) mod
// NumArchRegs, so the most recent producer at distance >= d is found by
// scanning backward.
func (p *Profile) sampleSource(r *rng.PCG, producers *[isa.NumArchRegs]int, nextDest int16, idx int) int16 {
	d := 1 + r.Weighted(p.DistHist)
	want := idx - d
	reg := int(nextDest) - 1
	for k := 0; k < isa.NumArchRegs; k++ {
		if reg < 0 {
			reg += isa.NumArchRegs
		}
		pi := producers[reg]
		if pi < 0 {
			return isa.RegNone
		}
		if pi <= want {
			return int16(reg)
		}
		reg--
	}
	return isa.RegNone
}

// Simulate measures t's profile, synthesizes a same-length statistical
// trace, and times it on the machine described by cfg — the full
// statistical-simulation methodology in one call.
func Simulate(t *trace.Trace, cfg uarch.Config, seed uint64) (*uarch.Result, *Profile, error) {
	p, err := Measure(t, cfg)
	if err != nil {
		return nil, nil, err
	}
	synth, events, err := p.Synthesize(t.Len(), seed)
	if err != nil {
		return nil, nil, err
	}
	// The synthetic trace's events are forced, so the simulator's own
	// cache/predictor state is irrelevant; disable warmup to skip the
	// pointless replay.
	cfg.Warmup = false
	r, err := uarch.SimulateWithEvents(synth, events, cfg)
	if err != nil {
		return nil, nil, err
	}
	return r, p, nil
}

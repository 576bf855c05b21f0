package stats

import (
	"slices"
	"testing"

	"fomodel/internal/cache"
	"fomodel/internal/isa"
	"fomodel/internal/trace"
	"fomodel/internal/workload"
)

// TestIsolateLongMisses pins eq. 8's leader rule on hand-built streams:
// which long data misses IsolateLongMisses keeps, and that it leaves
// every other bit and its input alone.
func TestIsolateLongMisses(t *testing.T) {
	const rob = 4
	long := NewEvent(cache.Hit, cache.LongMiss, false, false)
	hit := NewEvent(cache.Hit, cache.Hit, false, false)
	cases := []struct {
		name string
		// classes and events give the stream; want is the result.
		classes      []isa.Class
		events, want []Event
	}{{
		name:    "a miss exactly one ROB after its leader joins its group",
		classes: []isa.Class{isa.Load, isa.ALU, isa.ALU, isa.ALU, isa.Store},
		events:  []Event{long, 0, 0, 0, long},
		want:    []Event{long, 0, 0, 0, hit},
	}, {
		name:    "a miss one past the ROB leads a new group",
		classes: []isa.Class{isa.Load, isa.ALU, isa.ALU, isa.ALU, isa.ALU, isa.Load},
		events:  []Event{long, 0, 0, 0, 0, long},
		want:    []Event{long, 0, 0, 0, 0, long},
	}, {
		// Each miss is within one ROB of the previous one, but the one
		// at 6 lies more than a ROB after the leader at 0, so it leads.
		name:    "groups are measured from the leader, not the previous miss",
		classes: []isa.Class{isa.Load, isa.ALU, isa.ALU, isa.Load, isa.ALU, isa.ALU, isa.Load, isa.ALU, isa.ALU, isa.Load},
		events:  []Event{long, 0, 0, long, 0, 0, long, 0, 0, long},
		want:    []Event{long, 0, 0, hit, 0, 0, long, 0, 0, hit},
	}, {
		// Neither the ALU nor the branch access memory: their long-miss
		// bits stay as they are and lead nothing, so the load at 5 is
		// kept although it lies within one ROB of both.
		name:    "long-miss bits on non-memory instructions are ignored",
		classes: []isa.Class{isa.ALU, isa.ALU, isa.Branch, isa.ALU, isa.ALU, isa.Load, isa.Load},
		events:  []Event{long, 0, long, 0, 0, long, long},
		want:    []Event{long, 0, long, 0, 0, long, hit},
	}, {
		name:    "other bits survive a demotion",
		classes: []isa.Class{isa.Load, isa.Load, isa.Store, isa.Load},
		events: []Event{
			long,
			NewEvent(cache.LongMiss, cache.LongMiss, false, true),
			NewEvent(cache.ShortMiss, cache.LongMiss, true, false),
			NewEvent(cache.ShortMiss, cache.ShortMiss, false, true),
		},
		want: []Event{
			long,
			NewEvent(cache.LongMiss, cache.Hit, false, true),
			NewEvent(cache.ShortMiss, cache.Hit, true, false),
			NewEvent(cache.ShortMiss, cache.ShortMiss, false, true),
		},
	}}
	for _, c := range cases {
		tr := &trace.Trace{Name: "hand"}
		for _, class := range c.classes {
			tr.Instrs = append(tr.Instrs, trace.Instruction{Class: class, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
		}
		in := slices.Clone(c.events)
		got := IsolateLongMisses(tr, in, rob)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
		if !slices.Equal(in, c.events) {
			t.Errorf("%s: input changed to %v", c.name, in)
		}
	}
}

// TestIsolateLongMissesKeepsOneMissPerGroup checks the isolation against
// the model's grouping on every built-in workload at two ROB sizes: it
// keeps exactly one long miss per group of Summary.LongMissGroups, and
// the kept misses lie more than one ROB apart.
func TestIsolateLongMissesKeepsOneMissPerGroup(t *testing.T) {
	for _, name := range workload.Names() {
		tr, err := workload.Generate(name, 20000, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		events, err := Classify(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Analyze(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rob := range []int{48, 128} {
			var kept []int32
			for i, ev := range IsolateLongMisses(tr, events, rob) {
				if ev.DCache() == cache.LongMiss {
					kept = append(kept, int32(i))
				}
			}
			groups := 0
			//folint:allow(detrand) integer sum over the values; addition order cannot change it
			for _, g := range s.WithROB(rob).LongMissGroups {
				groups += g
			}
			if len(kept) != groups {
				t.Errorf("%s, rob %d: kept %d long misses, want one per group: %d", name, rob, len(kept), groups)
			}
			if got := groupPositions(kept, rob); len(got) > 1 || got[1] != len(kept) {
				t.Errorf("%s, rob %d: kept misses %v regroup as %v, want all isolated", name, rob, kept, got)
			}
		}
	}
}

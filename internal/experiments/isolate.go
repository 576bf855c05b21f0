package experiments

import (
	"fomodel/internal/core"
	"fomodel/internal/uarch"
)

// MissEvent names one miss-event class of the paper's §1.1 isolation
// method.
type MissEvent int

const (
	// EventBranch is branch mispredictions, counted by
	// uarch.Result.Mispredicts.
	EventBranch MissEvent = iota
	// EventICache is I-cache misses, short and long.
	EventICache
	// EventDCache is long D-cache misses, counted by DCacheLong.
	EventDCache
	numEvents
)

// only makes e the one real miss-event source of c: its ideal toggle
// off, the other two on. numEvents makes every source ideal.
func (e MissEvent) only(c *uarch.Config) {
	c.IdealPredictor = e != EventBranch
	c.IdealICache = e != EventICache
	c.IdealDCache = e != EventDCache
}

// count is the number of e events a simulator run charged.
func (e MissEvent) count(r *uarch.Result) uint64 {
	switch e {
	case EventBranch:
		return r.Mispredicts
	case EventICache:
		return r.ICacheShort + r.ICacheLong
	}
	return r.DCacheLong
}

// Isolation is the §1.1 run set at one machine point: the all-ideal run
// and, per requested event, the run where only that event is real. Each
// run is a Comparison, so it carries the model's estimate at the point
// beside the simulator's result.
type Isolation struct {
	Ideal *Comparison
	// Only holds each requested event's run, indexed by MissEvent; nil
	// for an event not requested.
	Only [numEvents]*Comparison
}

// Isolate runs the §1.1 isolation on w at the machine point mutate
// makes of the suite's simulator configuration (nil for the baseline):
// the all-ideal run, then one run per event with only that event real,
// each through Compare under opts. The combined run, with every event
// real, is Compare at the point itself.
func (s *Suite) Isolate(w *Workload, mutate func(*uarch.Config), opts core.Options, events ...MissEvent) (*Isolation, error) {
	run := func(e MissEvent) (*Comparison, error) {
		return s.Compare(w, func(c *uarch.Config) {
			if mutate != nil {
				mutate(c)
			}
			e.only(c)
		}, opts)
	}
	ideal, err := run(numEvents)
	if err != nil {
		return nil, err
	}
	iso := &Isolation{Ideal: ideal}
	for _, e := range events {
		if iso.Only[e], err = run(e); err != nil {
			return nil, err
		}
	}
	return iso, nil
}

// Count is the number of e events in e's run.
func (iso *Isolation) Count(e MissEvent) uint64 { return e.count(iso.Only[e].Sim) }

// Penalty is the cycles e's run spends over the all-ideal run: the total
// time penalty of e's events.
func (iso *Isolation) Penalty(e MissEvent) float64 {
	return float64(iso.Only[e].Sim.Cycles - iso.Ideal.Sim.Cycles)
}

// PerEvent is Penalty per e event; 0 when the run has none.
func (iso *Isolation) PerEvent(e MissEvent) float64 { return iso.PerEventIn(e, iso.Only[e].Sim) }

// PerEventIn is the penalty per e event of another run at the point,
// differenced against the all-ideal run: Fig. 14's serialized long
// misses, say. It is 0 when the run has no e events.
func (iso *Isolation) PerEventIn(e MissEvent, r *uarch.Result) float64 {
	n := e.count(r)
	if n == 0 {
		return 0
	}
	return float64(r.Cycles-iso.Ideal.Sim.Cycles) / float64(n)
}

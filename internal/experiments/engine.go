package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file is the parallel experiment engine: a bounded worker pool that
// fans independent pieces of work — workload analyses, simulator runs,
// whole experiments — out across goroutines while keeping every rendered
// result in deterministic report order. The rule throughout is "compute
// concurrently, render in order": workers may finish in any order, but
// results are always consumed on the calling goroutine in index order, so
// a run with one worker and a run with N workers produce byte-identical
// output.

// DefaultWorkers is the engine's default pool size: one worker per
// available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// normalizeWorkers maps the "unset" zero value (and negatives) to the
// default pool size.
func normalizeWorkers(workers int) int {
	if workers <= 0 {
		return DefaultWorkers()
	}
	return workers
}

// PanicError is a panic recovered from an engine worker, carrying the
// panic value and the worker's stack. The engine converts panics into
// ordinary errors so one panicking job cannot kill the whole process —
// in the daemon, a pooled sweep or batch worker that panics surfaces as
// a 500 response instead of tearing the server down.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("experiments: worker panic: %v", e.Value)
}

// guard invokes compute(i), converting a panic into a *PanicError.
func guard[T any](compute func(int) (T, error), i int) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return compute(i)
}

// RunOrdered runs n independent jobs on a pool of at most workers
// goroutines (0 means DefaultWorkers) and delivers each result to emit on
// the calling goroutine, strictly in index order. compute(i) may run
// concurrently with any other compute(j); emit never does, and emit(i, …)
// always happens before emit(i+1, …).
//
// The first error — from compute, in index order, or from emit — stops
// the ordered delivery and is returned. Jobs already started keep running
// to completion in the background, but no new jobs are handed out.
func RunOrdered[T any](workers, n int, compute func(int) (T, error), emit func(int, T) error) error {
	if n <= 0 {
		return nil
	}
	workers = normalizeWorkers(workers)
	if workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			v, err := guard(compute, i)
			if err != nil {
				return err
			}
			if emit != nil {
				if err := emit(i, v); err != nil {
					return err
				}
			}
		}
		return nil
	}

	type slot struct {
		v   T
		err error
	}
	results := make([]slot, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}

	// The feeder hands out indices until the work is done or the consumer
	// bails out early; quit keeps it from leaking in the latter case.
	work := make(chan int)
	quit := make(chan struct{})
	defer close(quit)
	go func() {
		defer close(work)
		for i := 0; i < n; i++ {
			select {
			case work <- i:
			case <-quit:
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		go func() {
			for i := range work {
				results[i].v, results[i].err = guard(compute, i)
				close(done[i])
			}
		}()
	}

	for i := 0; i < n; i++ {
		<-done[i]
		if err := results[i].err; err != nil {
			return err
		}
		if emit != nil {
			if err := emit(i, results[i].v); err != nil {
				return err
			}
		}
	}
	return nil
}

// MapWorkloads runs fn on every cell of the grid benches × variants,
// fn(w, v) for each benchmark's workload w and each variant index v in
// [0, variants), concurrently (bounded by s.Workers), and returns the
// results in grid order: benchmarks outer, variants inner, so parallel
// and sequential runs build identical slices. emit, when non-nil,
// receives each result on the calling goroutine, in grid order, as it
// becomes available; an emit error stops the grid and is returned as it
// is. fn runs on pool goroutines and must not touch shared mutable
// state. The first failure in grid order wins: a benchmark that does
// not resolve, or an fn error, comes back prefixed with the benchmark's
// name (a *workloadError, which unwraps to the cause).
func MapWorkloads[T any](s *Suite, benches []string, variants int, fn func(w *Workload, v int) (T, error), emit func(T) error) ([]T, error) {
	return mapGrid(nil, s, benches, variants, fn, emit)
}

// mapGrid is MapWorkloads with a stop check (a context's Err, say) that
// each cell runs, when it is non-nil, before it resolves its workload: a
// cell fails with the check's error as it is, so a cancelled grid
// generates and analyses no more traces.
func mapGrid[T any](stop func() error, s *Suite, benches []string, variants int, fn func(w *Workload, v int) (T, error), emit func(T) error) ([]T, error) {
	out := make([]T, 0, len(benches)*variants)
	err := RunOrdered(s.workers(), len(benches)*variants, func(i int) (T, error) {
		var zero T
		if stop != nil {
			if err := stop(); err != nil {
				return zero, err
			}
		}
		name := benches[i/variants]
		w, err := s.Workload(name)
		if err == nil {
			var v T
			if v, err = fn(w, i%variants); err == nil {
				return v, nil
			}
		}
		return zero, &workloadError{bench: name, err: err}
	}, func(_ int, v T) error {
		out = append(out, v)
		if emit != nil {
			return emit(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// workloadError is a MapWorkloads cell's failure: the benchmark's
// workload did not resolve, or fn failed on it.
type workloadError struct {
	bench string
	err   error
}

func (e *workloadError) Error() string { return fmt.Sprintf("experiments: %s: %v", e.bench, e.err) }

func (e *workloadError) Unwrap() error { return e.err }

// unprefixed strips the benchmark prefix from a MapWorkloads failure,
// for the grids whose errors never carried it: the sweeps, whose error
// bodies the daemon serves, and the in-order, cluster and predictor
// studies.
func unprefixed(err error) error {
	if we, ok := err.(*workloadError); ok {
		return we.err
	}
	return err
}

// TimingSample is one named wall-time measurement.
type TimingSample struct {
	// Phase groups samples ("workload", "experiment").
	Phase string
	// Name identifies the benchmark or experiment label.
	Name string
	// Elapsed is the measured wall time.
	Elapsed time.Duration
}

// Timings collects named wall-time samples from concurrently executing
// work. All methods are safe for concurrent use, and every method is a
// no-op on a nil receiver so instrumented code paths need no guards.
type Timings struct {
	mu      sync.Mutex
	samples []TimingSample
}

// Record appends one sample.
func (t *Timings) Record(phase, name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples = append(t.samples, TimingSample{Phase: phase, Name: name, Elapsed: d})
	t.mu.Unlock()
}

// Samples returns a copy of the collected samples sorted by phase, then
// descending elapsed time, then name.
func (t *Timings) Samples() []TimingSample {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]TimingSample, len(t.samples))
	copy(out, t.samples)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		if out[i].Elapsed != out[j].Elapsed {
			return out[i].Elapsed > out[j].Elapsed
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Render prints the samples as an aligned table, slowest first within
// each phase, with a per-phase total. The output is wall-time based and
// therefore not covered by the engine's byte-identical-output guarantee.
func (t *Timings) Render() string {
	samples := t.Samples()
	if len(samples) == 0 {
		return ""
	}
	tab := &table{
		title:  "Timing breakdown (wall time per unit of engine work)",
		header: []string{"phase", "name", "elapsed"},
	}
	totals := map[string]time.Duration{}
	var order []string
	for _, s := range samples {
		if _, ok := totals[s.Phase]; !ok {
			order = append(order, s.Phase)
		}
		totals[s.Phase] += s.Elapsed
		tab.addRow(s.Phase, s.Name, s.Elapsed.Round(time.Millisecond).String())
	}
	parts := make([]string, 0, len(order))
	for _, phase := range order {
		parts = append(parts, fmt.Sprintf("%s %s", phase, totals[phase].Round(time.Millisecond)))
	}
	tab.addNote("totals: %s (concurrent work overlaps, so totals can exceed wall time)",
		strings.Join(parts, ", "))
	return tab.Render()
}

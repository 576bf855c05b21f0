package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fomodel/internal/workload"
)

func TestRunOrderedEmitsInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var got []int
		err := RunOrdered(workers, 20, func(i int) (int, error) {
			return i * i, nil
		}, func(i, v int) error {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d carries %d", workers, i, v)
			}
			got = append(got, i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: emit order %v", workers, got)
			}
		}
		if len(got) != 20 {
			t.Fatalf("workers=%d: emitted %d of 20", workers, len(got))
		}
	}
}

func TestRunOrderedBoundsConcurrency(t *testing.T) {
	const workers = 3
	var running, peak atomic.Int32
	err := RunOrdered(workers, 24, func(i int) (struct{}, error) {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		running.Add(-1)
		return struct{}{}, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs with a %d-worker pool", p, workers)
	}
}

func TestRunOrderedFirstErrorByIndex(t *testing.T) {
	// Index 3 fails fast, index 7 fails slow: the returned error must be
	// index 3's regardless of which worker finishes first, and emit must
	// stop before slot 3.
	errFast := errors.New("fast")
	errSlow := errors.New("slow")
	for _, workers := range []int{1, 4} {
		var emitted []int
		err := RunOrdered(workers, 10, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errFast
			case 7:
				time.Sleep(5 * time.Millisecond)
				return 0, errSlow
			}
			return i, nil
		}, func(i, _ int) error {
			emitted = append(emitted, i)
			return nil
		})
		if !errors.Is(err, errFast) {
			t.Fatalf("workers=%d: got %v, want the index-3 error", workers, err)
		}
		for _, i := range emitted {
			if i >= 3 {
				t.Fatalf("workers=%d: emitted slot %d past the failure", workers, i)
			}
		}
	}
}

func TestRunOrderedEmitErrorStops(t *testing.T) {
	errStop := errors.New("stop")
	count := 0
	err := RunOrdered(4, 50, func(i int) (int, error) { return i, nil },
		func(i, _ int) error {
			count++
			if i == 5 {
				return errStop
			}
			return nil
		})
	if !errors.Is(err, errStop) {
		t.Fatalf("got %v", err)
	}
	if count != 6 {
		t.Fatalf("emit ran %d times, want 6", count)
	}
}

// TestRunOrderedRecoversPanics pins the pooled panic contract: a panic
// in a compute callback — sequential or pooled — surfaces as a
// *PanicError carrying the panic value and a stack, instead of killing
// the worker goroutine (which would deadlock the emit loop) or the
// process.
func TestRunOrderedRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var emitted []int
		err := RunOrdered(workers, 10, func(i int) (int, error) {
			if i == 3 {
				panic(fmt.Sprintf("boom at %d", i))
			}
			return i, nil
		}, func(i, _ int) error {
			emitted = append(emitted, i)
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v (%T), want *PanicError", workers, err, err)
		}
		if got := fmt.Sprint(pe.Value); got != "boom at 3" {
			t.Errorf("workers=%d: panic value = %q", workers, got)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError carries no stack", workers)
		}
		if !strings.Contains(pe.Error(), "worker panic") || !strings.Contains(pe.Error(), "boom at 3") {
			t.Errorf("workers=%d: error text %q should name the panic", workers, pe.Error())
		}
		for _, i := range emitted {
			if i >= 3 {
				t.Errorf("workers=%d: emitted slot %d past the panic", workers, i)
			}
		}
	}
}

func TestRunOrderedZeroJobs(t *testing.T) {
	if err := RunOrdered(4, 0, func(int) (int, error) {
		t.Fatal("compute called with no jobs")
		return 0, nil
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadSingleFlight is the regression test for the duplicate-compute
// race: many goroutines released together against the same names must share
// one computation per name and see the identical trace and summary.
func TestWorkloadSingleFlight(t *testing.T) {
	s := smallSuite()
	const goroutinesPerName = 8
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		mu    sync.Mutex
		seen  = map[string]map[[2]any]bool{}
	)
	gate := make(chan struct{})
	for _, name := range s.Names {
		seen[name] = map[[2]any]bool{}
		for g := 0; g < goroutinesPerName; g++ {
			start.Add(1)
			done.Add(1)
			go func(name string) {
				defer done.Done()
				start.Done()
				<-gate // all goroutines hit the cache at once
				w, err := s.Workload(name)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				mu.Lock()
				seen[name][[2]any{w.Trace, w.Summary}] = true
				mu.Unlock()
			}(name)
		}
	}
	start.Wait()
	close(gate)
	done.Wait()
	for name, ptrs := range seen {
		if len(ptrs) != 1 {
			t.Errorf("%s: %d distinct trace or summary pointers, want 1 each", name, len(ptrs))
		}
	}
	if computes, _ := s.Counters(); computes != int64(len(s.Names)) {
		t.Errorf("%d workload computations for %d names", computes, len(s.Names))
	}
}

// TestMapWorkloadsReturnsPanics pins that a panic while resolving a
// workload (here from the custom workload lookup) reaches MapWorkloads'
// caller as a *PanicError, at one worker and at several.
func TestMapWorkloadsReturnsPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := smallSuite()
		s.Workers = workers
		s.Lookup = func(name string) (workload.Profile, string, bool) {
			panic("injected lookup failure")
		}
		_, err := MapWorkloads(s, []string{"gzip", "custom-wl"}, 1, func(*Workload, int) (struct{}, error) {
			return struct{}{}, nil
		}, nil)
		var pe *PanicError
		if !errors.As(err, &pe) || !strings.Contains(pe.Error(), "injected lookup failure") {
			t.Fatalf("workers=%d: err = %v, want a *PanicError naming the injected panic", workers, err)
		}
	}
}

// TestWorkloadErrorsNotRetained pins the flight caches' failure policy
// at the suite: a failed trace load is not cached, so the next call for
// the same content computes again instead of reading a stored error.
// Here the name resolves to content "h", but the profile lookup inside
// the trace load finds other content, as after a re-registration.
func TestWorkloadErrorsNotRetained(t *testing.T) {
	s := smallSuite()
	calls := 0
	s.Lookup = func(string) (workload.Profile, string, bool) {
		calls++
		if calls%2 == 1 {
			return workload.Profile{}, "h", true
		}
		return workload.Profile{}, "other", true
	}
	for i := 1; i <= 2; i++ {
		if _, err := s.Workload("wl"); !errors.Is(err, ErrWorkloadChanged) {
			t.Fatalf("call %d: got %v, want ErrWorkloadChanged", i, err)
		}
		traces, _ := s.Caches()
		if _, loads, _ := traces.Stats(); loads != int64(i) {
			t.Fatalf("call %d: %d trace loads, want %d (errors are not retained)", i, loads, i)
		}
	}
}

// TestMapWorkloadsWrapsBothErrorPaths pins MapWorkloads' failures at one
// worker and at several: a benchmark that does not resolve and an fn
// error both carry the benchmark's name, while an emit error comes back
// as it is.
func TestMapWorkloadsWrapsBothErrorPaths(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := smallSuite()
		s.Workers = workers
		ok := func(*Workload, int) (struct{}, error) { return struct{}{}, nil }
		_, err := MapWorkloads(s, []string{"gzip", "nope"}, 2, ok, nil)
		if err == nil || !strings.HasPrefix(err.Error(), "experiments: nope:") {
			t.Fatalf("workers=%d: resolve error not wrapped with the name: %v", workers, err)
		}
		errFn := errors.New("fn failed")
		_, err = MapWorkloads(s, s.Names, 2, func(w *Workload, v int) (struct{}, error) {
			if w.Name == "mcf" && v == 1 {
				return struct{}{}, errFn
			}
			return struct{}{}, nil
		}, nil)
		if !errors.Is(err, errFn) || err.Error() != "experiments: mcf: fn failed" {
			t.Fatalf("workers=%d: fn error not wrapped with the name: %v", workers, err)
		}
		errEmit := errors.New("emit failed")
		_, err = MapWorkloads(s, s.Names, 2, ok, func(struct{}) error { return errEmit })
		if err != errEmit {
			t.Fatalf("workers=%d: emit error = %v, want it as it is", workers, err)
		}
	}
}

// TestMapWorkloadsKeepsReportOrder pins the grid order at one worker and
// at several: results and emits come benchmarks outer, variants inner,
// and each benchmark's workload is computed once for all its variants.
func TestMapWorkloadsKeepsReportOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := smallSuite()
		s.Workers = workers
		var want, emitted []string
		for _, name := range s.Names {
			for v := 0; v < 3; v++ {
				want = append(want, fmt.Sprintf("%s/%d", name, v))
			}
		}
		cells, err := MapWorkloads(s, s.Names, 3, func(w *Workload, v int) (string, error) {
			return fmt.Sprintf("%s/%d", w.Name, v), nil
		}, func(cell string) error {
			emitted = append(emitted, cell)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(cells) != fmt.Sprint(want) || fmt.Sprint(emitted) != fmt.Sprint(want) {
			t.Fatalf("workers=%d: results %v, emitted %v, want %v", workers, cells, emitted, want)
		}
		if computes, _ := s.Counters(); computes != int64(len(s.Names)) {
			t.Fatalf("workers=%d: %d workload computations for %d names", workers, computes, len(s.Names))
		}
	}
}

// TestMapWorkloadsPrefetches pins MapWorkloads as a prefetch: a pass
// with a no-op fn computes each workload once, and a second pass is a
// no-op against the full cache.
func TestMapWorkloadsPrefetches(t *testing.T) {
	s := smallSuite()
	s.Workers = 4
	noop := func(*Workload, int) (struct{}, error) { return struct{}{}, nil }
	for pass := 1; pass <= 2; pass++ {
		if _, err := MapWorkloads(s, s.Names, 1, noop, nil); err != nil {
			t.Fatal(err)
		}
		if computes, _ := s.Counters(); computes != int64(len(s.Names)) {
			t.Fatalf("pass %d: %d workload computations for %d names", pass, computes, len(s.Names))
		}
	}
}

// TestParallelMatchesSequential is the engine's determinism contract:
// rendering an experiment with one worker and with many must produce
// byte-identical output on fresh suites.
func TestParallelMatchesSequential(t *testing.T) {
	render := func(workers int) (string, string) {
		s := smallSuite()
		s.Workers = workers
		f15, err := Figure15(s)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := Table1(s)
		if err != nil {
			t.Fatal(err)
		}
		return f15.tab().Render(), t1.tab().Render()
	}
	seqF15, seqT1 := render(1)
	parF15, parT1 := render(8)
	if seqF15 != parF15 {
		t.Errorf("Figure15 differs between 1 and 8 workers:\n--- sequential ---\n%s--- parallel ---\n%s", seqF15, parF15)
	}
	if seqT1 != parT1 {
		t.Errorf("Table1 differs between 1 and 8 workers:\n--- sequential ---\n%s--- parallel ---\n%s", seqT1, parT1)
	}
}

func TestTimingsNilSafe(t *testing.T) {
	var tm *Timings
	tm.Record("workload", "gzip", time.Second) // must not panic
	if tm.Samples() != nil {
		t.Fatal("nil Timings produced samples")
	}
	if tm.Render() != "" {
		t.Fatal("nil Timings rendered output")
	}
}

func TestTimingsSortAndRender(t *testing.T) {
	tm := &Timings{}
	tm.Record("workload", "gzip", 2*time.Second)
	tm.Record("experiment", "fig15", 3*time.Second)
	tm.Record("workload", "mcf", 5*time.Second)
	samples := tm.Samples()
	want := []string{"fig15", "mcf", "gzip"} // phase asc, elapsed desc
	for i, s := range samples {
		if s.Name != want[i] {
			t.Fatalf("sample order %v", samples)
		}
	}
	out := tm.Render()
	for _, needle := range []string{"gzip", "mcf", "fig15", "totals:"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("render missing %q:\n%s", needle, out)
		}
	}
}

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

// TestWarmRepanics pins that Warm stays a pure prefetch for errors but not
// for bugs: a panic while computing a workload (here from the custom
// workload lookup) reaches Warm's caller as a *PanicError instead of
// leaving a silently empty cache entry behind.
func TestWarmRepanics(t *testing.T) {
	s := smallSuite()
	s.Workers = 2
	s.Names = []string{"gzip", "custom-wl"}
	s.Lookup = func(name string) (workload.Profile, string, bool) {
		panic("injected lookup failure")
	}
	defer func() {
		var pe *PanicError
		if err, _ := recover().(error); !errors.As(err, &pe) || !strings.Contains(pe.Error(), "injected lookup failure") {
			t.Fatalf("Warm recovered %v, want a *PanicError naming the injected panic", err)
		}
	}()
	s.Warm()
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
		if computes, _ := s.Counters(); computes != int64(i) {
			t.Fatalf("call %d: %d analyses computed, want %d (errors are not retained)", i, computes, i)
		}
	}
}

func TestEachWorkloadWrapsBothErrorPaths(t *testing.T) {
	// Workload-computation errors carry the benchmark name…
	s := smallSuite()
	s.Names = []string{"gzip", "nope"}
	err := s.EachWorkload(func(*Workload) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "experiments: nope:") {
		t.Fatalf("compute error not wrapped with the name: %v", err)
	}
	// …and so do errors returned by fn itself.
	s = smallSuite()
	errFn := errors.New("fn failed")
	err = s.EachWorkload(func(w *Workload) error {
		if w.Name == "mcf" {
			return errFn
		}
		return nil
	})
	if !errors.Is(err, errFn) || !strings.Contains(err.Error(), "experiments: mcf:") {
		t.Fatalf("fn error not wrapped with the name: %v", err)
	}
}

func TestMapWorkloadsKeepsReportOrder(t *testing.T) {
	for _, workers := range []int{1, 8} {
		s := smallSuite()
		s.Workers = workers
		names, err := MapWorkloads(s, func(w *Workload) (string, error) {
			return w.Name, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(names) != fmt.Sprint(s.Names) {
			t.Fatalf("workers=%d: order %v, want %v", workers, names, s.Names)
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
		return f15.Render(), t1.Render()
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

func TestSuiteWarmPrefetches(t *testing.T) {
	s := smallSuite()
	s.Workers = 4
	s.Warm()
	if computes, _ := s.Counters(); computes != int64(len(s.Names)) {
		t.Fatalf("Warm computed %d workloads, want %d", computes, len(s.Names))
	}
	s.Warm() // second warm is a no-op against a full cache
	if computes, _ := s.Counters(); computes != int64(len(s.Names)) {
		t.Fatalf("second Warm recomputed: %d", computes)
	}
}

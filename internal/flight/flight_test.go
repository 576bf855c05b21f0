package flight

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// val is a compute that succeeds with v.
func val(v string) func() (string, error) {
	return func() (string, error) { return v, nil }
}

// TestErrorJoinNotAHit is the regression test for the accounting bug
// where a caller joining an in-flight computation that finished in an
// error was counted as a cache hit.
func TestErrorJoinNotAHit(t *testing.T) {
	c := New[string, string](8, nil)
	entered := make(chan struct{})
	release := make(chan struct{})
	failure := errors.New("compute failed")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, hit, err := c.Do("k", func() (string, error) {
			close(entered)
			<-release
			return "", failure
		})
		if hit {
			t.Error("computing caller reported hit")
		}
		if !errors.Is(err, failure) {
			t.Errorf("computing caller err = %v, want %v", err, failure)
		}
	}()
	<-entered

	// Join the in-flight computation, then let it fail.
	joined := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(joined)
		_, hit, err := c.Do("k", func() (string, error) {
			t.Error("joiner ran its own compute")
			return "", nil
		})
		if hit {
			t.Error("error-outcome join counted as a hit")
		}
		if !errors.Is(err, failure) {
			t.Errorf("joiner err = %v, want shared %v", err, failure)
		}
	}()
	<-joined
	close(release)
	wg.Wait()

	if hits, misses, _ := c.Stats(); hits != 0 || misses != 1 {
		t.Errorf("hits=%d misses=%d after shared failure, want 0/1", hits, misses)
	}
	if c.Len() != 0 {
		t.Errorf("failed entry still cached: len=%d", c.Len())
	}

	// A later call must recompute (the failure was forgotten) and a
	// successful lookup must count as a hit.
	if _, hit, err := c.Do("k", val("fresh")); hit || err != nil {
		t.Errorf("recompute after failure: hit=%v err=%v", hit, err)
	}
	if v, hit, err := c.Do("k", nil); !hit || err != nil || v != "fresh" {
		t.Errorf("retained success: hit=%v err=%v v=%q", hit, err, v)
	}
	if hits, misses, _ := c.Stats(); hits != 1 || misses != 2 {
		t.Errorf("hits=%d misses=%d, want 1/2", hits, misses)
	}
}

// TestEvictionSkipsInflight is the regression test for the eviction
// bug: trimming the LRU must never drop an entry whose computation is
// still in flight, because callers may be blocked on it.
func TestEvictionSkipsInflight(t *testing.T) {
	c := New[string, string](2, nil)
	entered := make(chan struct{})
	release := make(chan struct{})

	// Key a computes slowly; one waiter blocks on it.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, err := c.Do("a", func() (string, error) {
			close(entered)
			<-release
			return "a-val", nil
		})
		if err != nil || v != "a-val" {
			t.Errorf("computing caller: v=%q err=%v", v, err)
		}
	}()
	<-entered
	waiterJoined := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(waiterJoined)
		v, _, err := c.Do("a", nil) // must join, never compute (nil would panic)
		if err != nil || v != "a-val" {
			t.Errorf("blocked waiter: v=%q err=%v", v, err)
		}
	}()
	<-waiterJoined

	// Fill past capacity while a is in flight and oldest in LRU order:
	// the finished entries must be evicted around it.
	c.Do("b", val("b"))
	c.Do("c", val("c"))
	c.Do("d", val("d"))
	if got := c.Len(); got > 3 {
		t.Errorf("len=%d after overfill, want ≤ 3 (cap 2 + 1 in-flight)", got)
	}

	// a must still be reachable and its waiters must complete correctly.
	close(release)
	wg.Wait()
	if v, hit, err := c.Do("a", nil); !hit || err != nil || v != "a-val" {
		t.Errorf("in-flight entry was dropped by eviction: hit=%v err=%v v=%q", hit, err, v)
	}
	// The oldest *finished* entry (b) must have been evicted.
	recomputed := false
	c.Do("b", func() (string, error) {
		recomputed = true
		return "b", nil
	})
	if !recomputed {
		t.Error("finished LRU entry b was not evicted")
	}
}

// TestEvictsLRUOrder pins plain LRU behaviour for finished entries:
// touching an entry protects it, the least recently used one goes
// first, and onEvict sees exactly the evicted entry.
func TestEvictsLRUOrder(t *testing.T) {
	var evicted []string
	c := New(2, func(k, v string) { evicted = append(evicted, k+"="+v) })
	c.Do("a", val("a"))
	c.Do("b", val("b"))
	c.Do("a", nil) // touch a, making b least recent
	c.Do("c", val("c"))
	if c.Len() != 2 {
		t.Fatalf("len=%d, want 2", c.Len())
	}
	if _, hit, _ := c.Do("a", val("a2")); !hit {
		t.Error("recently used entry a was evicted")
	}
	if _, hit, _ := c.Do("c", val("c2")); !hit {
		t.Error("newest entry c was evicted")
	}
	if len(evicted) != 1 || evicted[0] != "b=b" {
		t.Errorf("onEvict saw %v, want [b=b]", evicted)
	}
	if _, _, evictions := c.Stats(); evictions != 1 {
		t.Errorf("evictions=%d, want 1", evictions)
	}
}

// TestPanicReleasesWaiters pins that a panicking compute is turned into
// an error, waiters are released (rather than blocking on a done channel
// nobody will close), and the entry is forgotten.
func TestPanicReleasesWaiters(t *testing.T) {
	c := New[string, string](8, nil)
	entered := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.Do("k", func() (string, error) {
			close(entered)
			<-release
			panic("kaboom")
		})
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Errorf("panic not converted to error: %v", err)
		}
	}()
	<-entered
	joined := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(joined)
		_, hit, err := c.Do("k", nil)
		if hit || err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Errorf("waiter after panic: hit=%v err=%v", hit, err)
		}
	}()
	<-joined
	close(release)
	wg.Wait()
	if c.Len() != 0 {
		t.Errorf("panicked entry still cached: len=%d", c.Len())
	}
}

// TestPanicThenSuccess pins that a key whose computation panicked is
// usable afterwards: the next call recomputes and gets the new value
// (not a zero value with a nil error), and the entry is evictable.
func TestPanicThenSuccess(t *testing.T) {
	c := New[string, *string](1, nil)
	if _, _, err := c.Do("k", func() (*string, error) { panic("kaboom") }); err == nil {
		t.Fatal("panic not reported")
	}
	fresh := "fresh"
	v, hit, err := c.Do("k", func() (*string, error) { return &fresh, nil })
	if v == nil || *v != fresh || hit || err != nil {
		t.Fatalf("after panic: v=%v hit=%v err=%v, want the new value", v, hit, err)
	}
	c.Do("other", func() (*string, error) { return new(string), nil })
	if c.Len() != 1 {
		t.Fatalf("len=%d, want 1", c.Len())
	}
	recomputed := false
	c.Do("k", func() (*string, error) {
		recomputed = true
		return &fresh, nil
	})
	if !recomputed {
		t.Error("entry computed after a panic was never evicted")
	}
}

// TestOnEvictReentrant pins that onEvict and the DeleteFunc predicate
// run without the cache's lock: callbacks that call back into the cache
// must not deadlock.
func TestOnEvictReentrant(t *testing.T) {
	var c *Cache[int, int]
	var lens []int
	c = New(1, func(k, _ int) {
		lens = append(lens, c.Len())
		c.DeleteFunc(func(int, int) bool { return c.Len() < 0 })
		if k == 0 {
			c.Do(100, func() (int, error) { return 100, nil })
		}
	})
	for k := 0; k < 3; k++ {
		c.Do(k, func() (int, error) { return k, nil })
	}
	if len(lens) == 0 {
		t.Fatal("onEvict never ran")
	}
	if got := c.Len(); got > 1 {
		t.Errorf("len=%d, want ≤ 1", got)
	}
}

// TestDeleteFuncSkipsInflight pins that DeleteFunc removes matching
// finished entries, reports them to onEvict and counts them as
// evictions, but leaves an in-flight entry to its waiters.
func TestDeleteFuncSkipsInflight(t *testing.T) {
	var dropped []string
	c := New(8, func(k, _ string) { dropped = append(dropped, k) })
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, err := c.Do("slow", func() (string, error) {
			close(entered)
			<-release
			return "slow", nil
		})
		if err != nil || v != "slow" {
			t.Errorf("in-flight caller: v=%q err=%v", v, err)
		}
	}()
	<-entered
	c.Do("x", val("x"))
	c.Do("y", val("y"))
	c.DeleteFunc(func(string, string) bool { return true })
	if len(dropped) != 2 {
		t.Errorf("onEvict saw %v, want x and y", dropped)
	}
	if c.Len() != 1 {
		t.Errorf("len=%d after DeleteFunc, want 1 (the in-flight entry)", c.Len())
	}
	close(release)
	<-done
	if _, hit, _ := c.Do("slow", nil); !hit {
		t.Error("DeleteFunc dropped the in-flight entry")
	}
	if _, _, evictions := c.Stats(); evictions != 2 {
		t.Errorf("evictions=%d, want 2", evictions)
	}
}

// TestConcurrentChurn exercises mixed hits, misses, failures, panics,
// deletions and eviction under -race.
func TestConcurrentChurn(t *testing.T) {
	c := New(4, func(k, v string) {
		if k != v {
			t.Errorf("onEvict(%q, %q): value does not belong to key", k, v)
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%10)
				if i%23 == 0 {
					c.DeleteFunc(func(k, _ string) bool { return k == key })
				}
				v, _, err := c.Do(key, func() (string, error) {
					switch {
					case i%7 == 0:
						return "", errors.New("transient")
					case i%11 == 0:
						panic("transient")
					}
					return key, nil
				})
				if err == nil && v != key {
					t.Errorf("key %s: got %q", key, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Len(); got > 4 {
		t.Errorf("len=%d after churn, want ≤ cap 4", got)
	}
}

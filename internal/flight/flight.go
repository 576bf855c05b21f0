// Package flight is the one bounded, single-flight LRU cache behind the
// daemon's response, analysis and trace caches and the simulator's prep
// cache. Concurrent callers for one key block on a single computation
// and share its outcome; finished successes are retained up to a count
// bound, least recently used first out.
//
// Every user gets the same policy, and the tests pin it here once:
//
//   - compute runs behind a panic guard, so a panicking computation
//     becomes an error for every caller instead of stranding its
//     waiters;
//   - a failure (error or panic) is shared with the callers already
//     waiting on it, and its entry leaves the map under the lock before
//     they wake, so no later lookup can find a failed entry and the next
//     caller recomputes;
//   - a hit is a call that found an entry whose computation succeeded —
//     joining a computation that fails is shared fate, not a hit;
//   - eviction considers only finished entries: an in-flight entry may
//     have callers blocked on it, so the bound can be exceeded by the
//     number of computations in flight, but a waiter is never detached
//     from its entry;
//   - the onEvict hook runs after the lock is released, for LRU
//     evictions and DeleteFunc removals alike, so it may call back into
//     the cache;
//   - Get reads an entry, joining one in flight, but never inserts, so
//     a caller that will not read a value again can use a cached copy
//     without caching its own;
//   - DoUncounted is Do that leaves the hit and miss counters alone,
//     for a lookup the cache's owner makes on behalf of another one.
package flight

import (
	"container/list"
	"fmt"
	"sync"

	"fomodel/internal/metrics"
)

// Cache is a count-bounded LRU with single-flight admission. It is safe
// for concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[K]*entry[K, V]
	order   *list.List // front = most recently used
	onEvict func(K, V)

	hits, misses, evictions metrics.Counter
}

type entry[K comparable, V any] struct {
	key  K
	elem *list.Element
	done chan struct{}

	// finished is set under the cache mutex once compute returned and
	// the entry's fate was decided; eviction and DeleteFunc skip
	// entries that are not yet finished.
	finished bool

	val V
	err error
}

// New returns an empty cache holding at most capacity finished entries.
// onEvict, when non-nil, is called with every entry the cache drops by
// its LRU bound or by DeleteFunc; failed computations are not retained,
// so they never reach it.
func New[K comparable, V any](capacity int, onEvict func(K, V)) *Cache[K, V] {
	return &Cache[K, V]{
		cap:     capacity,
		entries: make(map[K]*entry[K, V]),
		order:   list.New(),
		onEvict: onEvict,
	}
}

// Do returns the cached value for key, or runs compute once and caches
// its result if it succeeds. Callers that arrive while compute runs wait
// for it and share its value or error. hit reports whether the value
// came from an entry whose computation succeeded without this call
// running it. A panic in compute is returned as an error.
func (c *Cache[K, V]) Do(key K, compute func() (V, error)) (v V, hit bool, err error) {
	return c.do(key, compute, true)
}

// DoUncounted is Do without touching the hit and miss counters: for a
// cache's owner filling one entry while computing another, so the
// counters still count one lookup per outside request.
func (c *Cache[K, V]) DoUncounted(key K, compute func() (V, error)) (V, error) {
	v, _, err := c.do(key, compute, false)
	return v, err
}

func (c *Cache[K, V]) do(key K, compute func() (V, error), count bool) (v V, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.order.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.done
		if e.err != nil {
			return e.val, false, e.err
		}
		if count {
			c.hits.Inc()
		}
		return e.val, true, nil
	}
	e := &entry[K, V]{key: key, done: make(chan struct{})}
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	evicted := c.evictLocked()
	c.mu.Unlock()
	c.notify(evicted)

	if count {
		c.misses.Inc()
	}
	v, err = safeCompute(compute)

	// Decide the entry's fate under the lock before waking waiters: once
	// done is closed, no lookup can find a failed entry.
	c.mu.Lock()
	e.val, e.err, e.finished = v, err, true
	if err != nil {
		c.removeLocked(e)
		evicted = nil
	} else {
		evicted = c.evictLocked()
	}
	c.mu.Unlock()
	close(e.done)
	c.notify(evicted)
	return v, false, err
}

// Get returns the cached value for key without ever inserting one: an
// entry in flight is joined and its outcome shared, as Do shares it. ok
// reports a hit: an entry whose computation succeeded. Like Do, Get
// counts a hit, or a miss when it finds no entry, and refreshes the
// entry's recency; a joined computation that fails counts as neither.
func (c *Cache[K, V]) Get(key K) (v V, ok bool) {
	c.mu.Lock()
	e, found := c.entries[key]
	if !found {
		c.mu.Unlock()
		c.misses.Inc()
		return v, false
	}
	c.order.MoveToFront(e.elem)
	c.mu.Unlock()
	<-e.done
	if e.err != nil {
		return v, false
	}
	c.hits.Inc()
	return e.val, true
}

// safeCompute runs compute, converting a panic into an error.
func safeCompute[V any](compute func() (V, error)) (v V, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero V
			v, err = zero, fmt.Errorf("internal panic: %v", r)
		}
	}()
	return compute()
}

// DeleteFunc removes every finished entry for which del returns true and
// passes each to onEvict. In-flight entries are skipped: their callers
// are still waiting on them. del runs without the cache's lock.
func (c *Cache[K, V]) DeleteFunc(del func(K, V) bool) {
	var finished []*entry[K, V]
	c.mu.Lock()
	for elem := c.order.Front(); elem != nil; elem = elem.Next() {
		if e := elem.Value.(*entry[K, V]); e.finished {
			finished = append(finished, e)
		}
	}
	c.mu.Unlock()

	var removed []*entry[K, V]
	for _, e := range finished {
		if del(e.key, e.val) {
			removed = append(removed, e)
		}
	}
	c.mu.Lock()
	n := 0
	for _, e := range removed {
		// Skip an entry the LRU bound or another DeleteFunc dropped
		// while del ran.
		if c.entries[e.key] == e {
			c.removeLocked(e)
			c.evictions.Inc()
			removed[n] = e
			n++
		}
	}
	c.mu.Unlock()
	c.notify(removed[:n])
}

// evictLocked trims the cache toward capacity, least recently used
// first, skipping in-flight entries, and returns the evicted entries.
func (c *Cache[K, V]) evictLocked() []*entry[K, V] {
	var evicted []*entry[K, V]
	for elem := c.order.Back(); elem != nil && len(c.entries) > c.cap; {
		prev := elem.Prev()
		if e := elem.Value.(*entry[K, V]); e.finished {
			c.removeLocked(e)
			c.evictions.Inc()
			evicted = append(evicted, e)
		}
		elem = prev
	}
	return evicted
}

func (c *Cache[K, V]) removeLocked(e *entry[K, V]) {
	c.order.Remove(e.elem)
	delete(c.entries, e.key)
}

// notify passes dropped entries to onEvict; call it without the lock.
func (c *Cache[K, V]) notify(dropped []*entry[K, V]) {
	if c.onEvict == nil {
		return
	}
	for _, e := range dropped {
		c.onEvict(e.key, e.val)
	}
}

// Len returns the number of entries, in-flight ones included.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the hit and miss counts and the number of entries
// dropped by the LRU bound or DeleteFunc.
func (c *Cache[K, V]) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

package flight

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// FuzzCache runs a sequence of operations decoded from the input against
// a Cache and against a plain map plus recency list, and requires the
// two to agree on every returned value, hit flag and error, on the
// entry count, on the Stats counters and on the order of onEvict calls.
//
// The first byte sets the capacity (0–4); every following pair of bytes
// is one operation: the first selects the kind, the second the key.
// Kinds 4 and 5 are both Get, so that the saved corpus, written when
// there were four kinds, still decodes to the operations it was saved
// for.
func FuzzCache(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 2, 0, 1, 0, 3})
	f.Add([]byte{1, 1, 0, 2, 0, 0, 1, 3, 0})
	f.Add([]byte{3, 0, 0, 0, 1, 0, 2, 3, 1, 0, 3, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0})
	f.Add([]byte{2, 0, 1, 0, 2, 4, 1, 0, 3, 4, 1, 5, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := int(data[0] % 5)
		var got []int
		c := New(capacity, func(k, v int) {
			if v%8 != k {
				t.Fatalf("onEvict(%d, %d): value does not belong to key", k, v)
			}
			got = append(got, k)
		})

		// The model: values by key and keys by recency, most recent first.
		model := map[int]int{}
		var recency []int
		var want []int
		var hits, misses, evictions int64
		evictBack := func(limit int) {
			for len(recency) > limit {
				k := recency[len(recency)-1]
				recency = recency[:len(recency)-1]
				delete(model, k)
				want = append(want, k)
				evictions++
			}
		}
		// touch counts a hit on key and makes it the most recent.
		touch := func(key int) {
			hits++
			recency = slices.Insert(slices.DeleteFunc(recency, func(k int) bool { return k == key }), 0, key)
		}

		ops := data[1:]
		for i := 0; i+1 < len(ops); i += 2 {
			kind, key := ops[i]%6, int(ops[i+1]%8)
			fresh := i*8 + key
			switch kind {
			case 0, 1, 2: // Do, succeeding, failing or panicking on a miss
				v, hit, err := c.Do(key, func() (int, error) {
					switch kind {
					case 1:
						return 0, errors.New("fail")
					case 2:
						panic("boom")
					}
					return fresh, nil
				})
				if mv, ok := model[key]; ok {
					touch(key)
					if !hit || err != nil || v != mv {
						t.Fatalf("op %d: Do(%d) = (%d, %v, %v), want hit %d", i, key, v, hit, err, mv)
					}
					break
				}
				misses++
				evictBack(max(capacity-1, 0))
				if hit {
					t.Fatalf("op %d: Do(%d) reported a hit on a miss", i, key)
				}
				switch kind {
				case 0:
					if err != nil || v != fresh {
						t.Fatalf("op %d: Do(%d) = (%d, %v), want %d", i, key, v, err, fresh)
					}
					model[key] = fresh
					recency = slices.Insert(recency, 0, key)
					evictBack(capacity)
				case 1:
					if err == nil || err.Error() != "fail" {
						t.Fatalf("op %d: Do(%d) err = %v, want fail", i, key, err)
					}
				case 2:
					if err == nil || !strings.Contains(err.Error(), "boom") {
						t.Fatalf("op %d: Do(%d) err = %v, want the panic", i, key, err)
					}
				}
			case 3: // DeleteFunc of every key congruent to key mod 3
				c.DeleteFunc(func(k, _ int) bool { return k%3 == key%3 })
				recency = slices.DeleteFunc(recency, func(k int) bool {
					if k%3 != key%3 {
						return false
					}
					delete(model, k)
					want = append(want, k)
					evictions++
					return true
				})
			case 4, 5: // Get, which never inserts and so never evicts
				v, ok := c.Get(key)
				mv, cached := model[key]
				if !cached {
					misses++
					if ok {
						t.Fatalf("op %d: Get(%d) = (%d, true) on a miss", i, key, v)
					}
					break
				}
				touch(key)
				if !ok || v != mv {
					t.Fatalf("op %d: Get(%d) = (%d, %v), want hit %d", i, key, v, ok, mv)
				}
			}
			if c.Len() != len(model) {
				t.Fatalf("op %d: Len() = %d, model holds %d", i, c.Len(), len(model))
			}
			if h, m, e := c.Stats(); h != hits || m != misses || e != evictions {
				t.Fatalf("op %d: Stats() = %d/%d/%d, model %d/%d/%d", i, h, m, e, hits, misses, evictions)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: onEvict order %v, model %v", i, got, want)
			}
		}
	})
}

package router

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is an immutable consistent-hash ring over N replicas: each
// replica is hashed at vnodes points on a uint64 circle (seeded by its
// URL, so shard assignment is a function of replica identity, not list
// order), and a canonical request key is owned by the first replica
// point clockwise from the key's hash. Virtual nodes smooth the shard
// sizes; ownership of a key moves only when its arc's replica changes,
// so adding or removing one replica disturbs only ~1/N of the keyspace
// — the property that keeps the other replicas' caches hot through
// membership changes.
//
// Health is deliberately not the ring's concern: the ring answers "what
// is the preference order of replicas for this key", and the router
// walks that order skipping unhealthy or overloaded replicas. Keys
// therefore re-route to their ring successors while a replica is out
// and snap back, cache intact, when it returns.
type ring struct {
	points []ringPoint // sorted ascending by hash
	n      int
}

type ringPoint struct {
	hash    uint64
	replica int
}

// vnodes is the number of ring points per replica.
const vnodes = 64

// newRing hashes each replica URL at vnodes points.
func newRing(replicaURLs []string, vnodes int) *ring {
	r := &ring{
		points: make([]ringPoint, 0, len(replicaURLs)*vnodes),
		n:      len(replicaURLs),
	}
	for i, url := range replicaURLs {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(fmt.Sprintf("%s#%d", url, v)),
				replica: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Ties (vanishingly rare) break by replica index so the order
		// is total and deterministic.
		return r.points[a].replica < r.points[b].replica
	})
	return r
}

// hash64 is the ring's hash: FNV-1a with a 64-bit avalanche finalizer.
// It must be stable across processes and Go versions — proxy restarts
// and replica restarts have to agree on shard ownership, so a
// per-process seeded hash (maphash) is unusable here. Plain FNV-1a is
// stable but mixes its final bytes poorly: vnode strings differing only
// in their "#<i>" suffix produce clustered ring points (observed: a
// 290/10/0 key split across 3 replicas), so the finalizer (the murmur3
// fmix64 constants) is load-bearing, not decoration.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //folint:allow(errdrop) hash.Hash.Write is documented to never return an error
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// sequence returns all replica indices in ring order starting at the
// key's owner: element 0 owns the key, element 1 is the first distinct
// successor (where the key re-routes if the owner is out), and so on.
func (r *ring) sequence(key string) []int {
	seq := make([]int, 0, r.n)
	if len(r.points) == 0 {
		return seq
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make([]bool, r.n)
	for i := 0; i < len(r.points) && len(seq) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			seq = append(seq, p.replica)
		}
	}
	return seq
}

// owner returns the key's owning replica index.
func (r *ring) owner(key string) int {
	seq := r.sequence(key)
	if len(seq) == 0 {
		return 0
	}
	return seq[0]
}

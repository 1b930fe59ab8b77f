// Package fleet scales the join server past one host: a shard router owns
// N server.Servers — each a full simulated host with its own attested
// device, coprocessor worker pool, sealer, and (when durable) write-ahead
// log under DataDir/shard-<i>/ — and dispatches contracts across them by
// consistent hashing on the contract ID, spilling to the least-loaded shard
// when the owner refuses with ErrQueueFull. Crash domains follow the
// shards: one host dying interrupts only the jobs its WAL recorded, and a
// restarted fleet recovers every shard independently. The adversary model
// is unchanged — each shard's host sees exactly the access pattern a
// single-host deployment of its workload would produce, which the
// invariance suite pins per shard.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultReplicas is the number of virtual nodes each shard projects onto
// the ring. More replicas smooth the load split (the ring property test
// pins a 2x-of-mean bound) at a small fixed cost in ring size.
const DefaultReplicas = 128

// ringPoint is one virtual node: a position on the 64-bit ring owned by a
// shard.
type ringPoint struct {
	pos   uint64
	shard int
}

// Ring is a consistent-hash ring over shard indices. Construction is
// deterministic: the same shard set always yields the same key->shard
// mapping, so a restarted router routes recovered contracts exactly as the
// dead one did, and removing a shard remaps only the keys that shard owned
// (its virtual nodes vanish; every other point is unmoved).
type Ring struct {
	points []ringPoint
}

// NewRing builds a ring over shards 0..n-1.
func NewRing(n int) *Ring {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return newRingIDs(ids)
}

// newRingIDs builds a ring over an explicit shard set. The property tests
// use it to compare the full ring against the ring with one shard removed.
func newRingIDs(ids []int) *Ring {
	r := &Ring{points: make([]ringPoint, 0, len(ids)*DefaultReplicas)}
	for _, id := range ids {
		for v := 0; v < DefaultReplicas; v++ {
			r.points = append(r.points, ringPoint{pos: ringHash(fmt.Sprintf("shard-%d/%d", id, v)), shard: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		// Hash collisions between virtual nodes are broken by shard index so
		// the mapping stays deterministic across constructions.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Owner maps a contract ID to the shard owning it: the first virtual node
// at or clockwise of the key's position.
func (r *Ring) Owner(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.points[i].shard
}

// ringHash is FNV-1a, 64-bit, pushed through a splitmix64-style avalanche
// finalizer. Raw FNV of near-identical strings ("shard-0/1", "shard-0/2",
// ...) clusters on the ring badly enough to break the 2x-of-mean balance
// bound; the finalizer spreads those low-entropy differences across all 64
// bits (the balance property test quantifies the result).
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

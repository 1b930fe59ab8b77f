package fleet

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomIDs draws contract IDs shaped like real tenant names: a word-ish
// prefix plus a serial, seeded so every run sees the same set.
func randomIDs(rng *rand.Rand, n int) []string {
	prefixes := []string{"contract", "tenant", "join", "acme", "hospital", "census"}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%d-%08x", prefixes[rng.Intn(len(prefixes))], i, rng.Uint32())
	}
	return ids
}

// TestRingBalance pins the load split: over random contract-ID sets, no
// shard owns more than 2x the mean. The bound is what makes QueueDepth
// sizing per shard meaningful — a fleet whose ring could concentrate keys
// on one shard would turn spillover from a relief valve into the norm.
func TestRingBalance(t *testing.T) {
	const keys = 20000
	for _, n := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			ring := NewRing(n)
			rng := rand.New(rand.NewSource(int64(1000 + n)))
			counts := make([]int, n)
			for _, id := range randomIDs(rng, keys) {
				counts[ring.Owner(id)]++
			}
			mean := float64(keys) / float64(n)
			for shard, c := range counts {
				if float64(c) > 2*mean {
					t.Errorf("shard %d owns %d keys, over 2x the mean %.0f (counts %v)", shard, c, mean, counts)
				}
				if c == 0 {
					t.Errorf("shard %d owns no keys (counts %v)", shard, counts)
				}
			}
		})
	}
}

// TestRingRemovalRemap pins the consistency property: deleting one shard
// moves only the keys that shard owned — every other key keeps its owner
// exactly — and the moved fraction is ~1/N, not a full reshuffle. This is
// what lets a fleet lose a host without re-routing (and so re-exposing the
// access patterns of) the surviving shards' contracts.
func TestRingRemovalRemap(t *testing.T) {
	const keys = 20000
	for _, n := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			full := NewRing(n)
			rng := rand.New(rand.NewSource(int64(2000 + n)))
			ids := randomIDs(rng, keys)
			removed := n / 2
			remaining := make([]int, 0, n-1)
			for i := 0; i < n; i++ {
				if i != removed {
					remaining = append(remaining, i)
				}
			}
			partial := newRingIDs(remaining)

			moved := 0
			for _, id := range ids {
				before, after := full.Owner(id), partial.Owner(id)
				if before == removed {
					moved++
					if after == removed {
						t.Fatalf("key %q still maps to removed shard %d", id, removed)
					}
					continue
				}
				if after != before {
					t.Fatalf("key %q not owned by removed shard moved %d -> %d", id, before, after)
				}
			}
			frac := float64(moved) / float64(keys)
			lo, hi := 1/(2*float64(n)), 2/float64(n)
			if frac < lo || frac > hi {
				t.Errorf("removing shard %d remapped %.3f of keys, want within [%.3f, %.3f] (~1/%d)", removed, frac, lo, hi, n)
			}
		})
	}
}

// TestRingDeterminism pins that ring construction is a pure function of
// the shard set: a restarted router must route recovered contracts
// exactly as its predecessor did.
func TestRingDeterminism(t *testing.T) {
	a, b := NewRing(5), NewRing(5)
	rng := rand.New(rand.NewSource(3000))
	for _, id := range randomIDs(rng, 2000) {
		if a.Owner(id) != b.Owner(id) {
			t.Fatalf("two rings over the same shard set disagree on %q", id)
		}
	}
}

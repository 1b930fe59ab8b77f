package core

import (
	"fmt"
	"testing"

	"ppj/internal/relation"
	"ppj/internal/sim"
)

// memCache is the test SortedCache: a plain map.
type memCache struct{ m map[string][][]byte }

func newMemCache() *memCache { return &memCache{m: make(map[string][][]byte)} }

func (c *memCache) Lookup(key string) ([][]byte, bool) {
	v, ok := c.m[key]
	return v, ok
}

func (c *memCache) Store(key string, cells [][]byte) { c.m[key] = cells }

// TestJoin7CachedMatchesReference runs the cached variant cold (empty
// cache) and warm (second run over the same inputs, fresh coprocessor)
// across the same case grid as Join7, checking the reference join and the
// exact closed-form transfer count in both phases — and that the warm run
// hits on every non-empty side.
func TestJoin7CachedMatchesReference(t *testing.T) {
	cases := []struct {
		name       string
		relA, relB *relation.Relation
	}{
		{"empty", relation.NewRelation(relation.KeyedSchema()), relation.NewRelation(relation.KeyedSchema())},
	}
	for _, n := range []int{1, 63, 64, 65} {
		s := n / 2
		if s == 0 {
			s = n
		}
		relA, relB := genJoinSized(uint64(300+n), n, n, s)
		cases = append(cases, struct {
			name       string
			relA, relB *relation.Relation
		}{fmt.Sprintf("n=%d", n), relA, relB})
	}
	skA, skB := genSkewed(6, 30, 30)
	cases = append(cases, struct {
		name       string
		relA, relB *relation.Relation
	}{"skew90", skA, skB})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cache := newMemCache()
			pred := keyEqui(t, tc.relA, tc.relB)
			want := relation.ReferenceJoin(tc.relA, tc.relB, pred)
			for _, ph := range []struct {
				phase   string
				wantHit bool
			}{{"cold", false}, {"warm", true}} {
				phase, wantHit := ph.phase, ph.wantHit
				env := newEnv(t, 8, uint64(len(phase)), tc.relA, tc.relB)
				res, use, err := join7([]*sim.Coprocessor{env.t}, env.tabA, env.tabB, pred, cache, "k:A", "k:B")
				if err != nil {
					t.Fatalf("%s: %v", phase, err)
				}
				if res.OutputLen != int64(want.Len()) {
					t.Fatalf("%s: OutputLen = %d, want %d", phase, res.OutputLen, want.Len())
				}
				checkJoin(t, env, res, pred)
				nonEmpty := env.tabA.N > 0 // sides have equal emptiness in this grid
				if wantHit && nonEmpty && (!use.HitA || !use.HitB) {
					t.Fatalf("warm run missed: %+v", use)
				}
				if !wantHit && (use.HitA || use.HitB) {
					t.Fatalf("cold run hit: %+v", use)
				}
				wantTr := alg7Model(env.tabA.N, env.tabB.N, res.OutputLen, 8, &use)
				if got := int64(res.Stats.Transfers()); got != wantTr {
					t.Fatalf("%s: transfers = %d, want closed form %d", phase, got, wantTr)
				}
			}
		})
	}
}

// TestJoin7CachedWarmCheaper pins the cache's whole point: the warm run
// costs exactly a7SortSaving(q, B) fewer transfers per hit side than the
// cold run (the wrap, the span sort, and the readback are gone; the restore
// costs the same halfM puts the pads-plus-sorted cells cost cold).
func TestJoin7CachedWarmCheaper(t *testing.T) {
	relA, relB := genJoinSized(42, 24, 24, 10)
	pred := keyEqui(t, relA, relB)
	cache := newMemCache()
	run := func(seed uint64) (int64, CacheUse) {
		env := newEnv(t, 8, seed, relA, relB)
		res, use, err := join7([]*sim.Coprocessor{env.t}, env.tabA, env.tabB, pred, cache, "A", "B")
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Stats.Transfers()), use
	}
	cold, useCold := run(1)
	warm, useWarm := run(2)
	if useCold.Hits() != 0 || useCold.Misses() != 2 {
		t.Fatalf("cold use = %+v", useCold)
	}
	if useWarm.Hits() != 2 || useWarm.Misses() != 0 {
		t.Fatalf("warm use = %+v", useWarm)
	}
	if want := 2 * a7SortSaving(24, a7Block(8)); cold-warm != want {
		t.Fatalf("cold-warm = %d transfers, want 2·a7SortSaving(q, B) = %d", cold-warm, want)
	}
}

// TestJoin7CachedOtherCellWidthIsMiss pins what a cached sorted half of
// another working-cell width does — for instance one persisted by a build
// whose cell header had four index fields instead of five: the lookup is a
// miss, not an error. The join sorts cold, returns the reference result, is
// charged exactly the cold closed form, and replaces the entry, so the next
// run hits.
func TestJoin7CachedOtherCellWidthIsMiss(t *testing.T) {
	relA, relB := genJoinSized(91, 20, 17, 12)
	pred := keyEqui(t, relA, relB)
	cache := newMemCache()
	run := func(seed uint64) (Result, CacheUse) {
		t.Helper()
		env := newEnv(t, 8, seed, relA, relB)
		res, use, err := join7([]*sim.Coprocessor{env.t}, env.tabA, env.tabB, pred, cache, "A", "B")
		if err != nil {
			t.Fatalf("run %d: %v", seed, err)
		}
		checkJoin(t, env, res, pred)
		return res, use
	}
	run(1)
	for key, cells := range cache.m {
		narrow := make([][]byte, len(cells))
		for i, c := range cells {
			narrow[i] = append(append([]byte(nil), c[:a7Hdr-8]...), c[a7Hdr:]...)
		}
		cache.m[key] = narrow
	}

	res, use := run(2)
	if use.Misses() != 2 || use.Hits() != 0 {
		t.Fatalf("cache entries of another cell width: use = %+v, want two misses", use)
	}
	if got, want := int64(res.Stats.Transfers()), alg7Model(20, 17, res.OutputLen, 8, &CacheUse{}); got != want {
		t.Fatalf("transfers = %d, want the cold closed form %d", got, want)
	}
	if _, use := run(3); use.Hits() != 2 {
		t.Fatalf("the miss did not replace the entries: next run's use = %+v", use)
	}
}

// TestJoin7CachedAccessPatternInvariance extends the alg7 invariance pin to
// the cached variant: cold executions over inputs agreeing only on (|A|,
// |B|, S) charge identical stats, and warm executions (each against its own
// cache, filled by its own cold run) also charge identical stats — the
// closed form with both hit bits set. Contents influence which bytes are
// cached, never how many transfers move.
func TestJoin7CachedAccessPatternInvariance(t *testing.T) {
	const nA, nB, s = 12, 12, 8
	run := func(variant int, dataSeed, copSeed uint64, cache SortedCache) sim.Stats {
		t.Helper()
		relA, relB := alg7InvarianceInputs(variant, dataSeed)
		h := sim.NewHost(0)
		cop := newCop(t, h, 8, copSeed)
		tabs := loadTables(t, h, cop.Sealer(), relA, relB)
		res, _, err := join7([]*sim.Coprocessor{cop}, tabs[0], tabs[1], keyEqui(t, relA, relB), cache, "A", "B")
		if err != nil {
			t.Fatal(err)
		}
		if res.OutputLen != s {
			t.Fatalf("output length %d, want exact S=%d", res.OutputLen, s)
		}
		return res.Stats
	}
	c1, c2 := newMemCache(), newMemCache()
	cold1, cold2 := run(0, 1001, 7, c1), run(1, 2002, 8, c2)
	if cold1 != cold2 {
		t.Fatalf("cold cached schedule depends on tuple contents:\n run1 %+v\n run2 %+v", cold1, cold2)
	}
	if got, want := int64(cold1.Transfers()), alg7Model(nA, nB, s, 8, &CacheUse{}); got != want {
		t.Fatalf("cold transfers = %d, want closed form %d", got, want)
	}
	warm1, warm2 := run(0, 1001, 9, c1), run(1, 2002, 10, c2)
	if warm1 != warm2 {
		t.Fatalf("warm cached schedule depends on tuple contents:\n run1 %+v\n run2 %+v", warm1, warm2)
	}
	if got, want := int64(warm1.Transfers()), alg7Model(nA, nB, s, 8, &CacheUse{HitA: true, HitB: true}); got != want {
		t.Fatalf("warm transfers = %d, want closed form %d", got, want)
	}
}

// TestParallelJoin7CachedCorrectness runs the parallel cached variant over
// duplicate-heavy inputs for several fleet sizes, cold then warm, checking
// the reference join both times and full hits on the warm pass.
func TestParallelJoin7CachedCorrectness(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			relA := relation.GenKeyed(relation.NewRand(uint64(p)+50), 21, 5)
			relB := relation.GenKeyed(relation.NewRand(uint64(p)^0xACE), 27, 5)
			pred := keyEqui(t, relA, relB)
			want := relation.ReferenceJoin(relA, relB, pred)
			cache := newMemCache()
			for _, phase := range []string{"cold", "warm"} {
				h := sim.NewHost(0)
				cops := newFleet(t, h, p, 8)
				tabs := loadTables(t, h, cops[0].Sealer(), relA, relB)
				res, use, err := join7(cops, tabs[0], tabs[1], pred, cache, "A", "B")
				if err != nil {
					t.Fatalf("%s: %v", phase, err)
				}
				if phase == "warm" && use.Hits() != 2 {
					t.Fatalf("warm use = %+v", use)
				}
				got, err := DecodeOutput(cops[0], res)
				if err != nil {
					t.Fatal(err)
				}
				if !relation.SameMultiset(got, want) {
					t.Fatalf("p=%d %s mismatch: got %d rows, want %d", p, phase, got.Len(), want.Len())
				}
			}
		})
	}
}

// TestParallelJoin7CachedPerDeviceInvariance checks that Algorithm 7's
// per-device schedule at P = 2 and 4 — uncached, cached cold and cached
// warm, through the table row — is a function of the run's public sizes and
// of nothing else: fifty identical runs leave one per-device Trace.Digest
// vector (region ids are part of every traced event, so two goroutines
// racing for their scratch regions would show here and nowhere in Stats),
// and a content-different, size-identical input leaves the same vector and
// the same per-device Stats.
func TestParallelJoin7CachedPerDeviceInvariance(t *testing.T) {
	const s, runs = 8, 50
	type perDevice struct {
		digests [4]uint64
		stats   [4]sim.Stats
	}
	for _, p := range []int{2, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			run := func(variant int, dataSeed uint64, cache SortedCache) perDevice {
				t.Helper()
				relA, relB := alg7InvarianceInputs(variant, dataSeed)
				h := sim.NewHost(0)
				cops := newFleet(t, h, p, 8)
				tabs := loadTables(t, h, cops[0].Sealer(), relA, relB)
				in := Inputs{Pred: keyEqui(t, relA, relB)}
				if cache != nil {
					in.Cache, in.KeyA, in.KeyB = cache, "A", "B"
				}
				res, _, err := Algorithms[6].Run(cops, tabs, in)
				if err != nil {
					t.Fatal(err)
				}
				if res.OutputLen != s {
					t.Fatalf("output length %d, want exact S=%d", res.OutputLen, s)
				}
				var per perDevice
				for i, c := range cops {
					per.digests[i], per.stats[i] = c.Trace().Digest(), c.Stats()
				}
				return per
			}
			// warmed returns a cache filled by one cold run of the variant.
			warmed := func(variant int, dataSeed uint64) SortedCache {
				cache := newMemCache()
				run(variant, dataSeed, cache)
				return cache
			}
			w1, w2 := warmed(0, 3003), warmed(1, 4004)
			phases := map[string][2]func() SortedCache{
				"uncached": {func() SortedCache { return nil }, func() SortedCache { return nil }},
				"cold":     {func() SortedCache { return newMemCache() }, func() SortedCache { return newMemCache() }},
				"warm":     {func() SortedCache { return w1 }, func() SortedCache { return w2 }},
			}
			for phase, caches := range phases {
				want := run(0, 3003, caches[0]())
				for i := 1; i < runs; i++ {
					if got := run(0, 3003, caches[0]()); got != want {
						t.Fatalf("%s: run %d of the same input left per-device traces %#x, run 0 left %#x",
							phase, i, got.digests[:p], want.digests[:p])
					}
				}
				if other := run(1, 4004, caches[1]()); other != want {
					t.Fatalf("%s: per-device schedule depends on tuple contents:\n run1 %#x %+v\n run2 %#x %+v",
						phase, want.digests[:p], want.stats[:p], other.digests[:p], other.stats[:p])
				}
			}
		})
	}
}

// TestJoin7CachedWarmSkipsPreSortAt4096 is the acceptance benchmark
// scenario at scale: |A| = |B| = 2048 (union n = 4096). The warm
// re-execution must skip both per-side pre-sorts, with the transfer delta
// against the cold run asserted equal to the closed form — per side, the
// wrap (2q), the span sort, and the cache readback (q) disappear; the
// halfM restore costs what the cold pads-plus-cells cost.
func TestJoin7CachedWarmSkipsPreSortAt4096(t *testing.T) {
	if testing.Short() {
		t.Skip("n=4096 oblivious join in -short mode")
	}
	const nSide, s = 2048, 16
	relA, relB := genJoinSized(77, nSide, nSide, s)
	pred := keyEqui(t, relA, relB)
	cache := newMemCache()
	run := func(seed uint64) (Result, CacheUse) {
		env := newEnv(t, 8, seed, relA, relB)
		res, use, err := join7([]*sim.Coprocessor{env.t}, env.tabA, env.tabB, pred, cache, "A", "B")
		if err != nil {
			t.Fatal(err)
		}
		if res.OutputLen != s {
			t.Fatalf("output length %d, want %d", res.OutputLen, s)
		}
		checkJoin(t, env, res, pred)
		return res, use
	}
	cold, useCold := run(1)
	warm, useWarm := run(2)
	if useCold.Misses() != 2 || useWarm.Hits() != 2 {
		t.Fatalf("cache use: cold %+v, warm %+v", useCold, useWarm)
	}
	coldTr, warmTr := int64(cold.Stats.Transfers()), int64(warm.Stats.Transfers())
	if want := alg7Model(nSide, nSide, s, 8, &CacheUse{}); coldTr != want {
		t.Fatalf("cold transfers = %d, want %d", coldTr, want)
	}
	if want := alg7Model(nSide, nSide, s, 8, &CacheUse{HitA: true, HitB: true}); warmTr != want {
		t.Fatalf("warm transfers = %d, want %d", warmTr, want)
	}
	if want := 2 * a7SortSaving(nSide, a7Block(8)); coldTr-warmTr != want {
		t.Fatalf("warm saved %d transfers, want exactly 2·a7SortSaving(q, B) = %d", coldTr-warmTr, want)
	}
}

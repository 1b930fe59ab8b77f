package main

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"ppj/internal/core"
	"ppj/internal/relation"
	"ppj/internal/service"
)

// memory is the per-job coprocessor memory M of every workload, in tuples.
const memory = 64

// tenants is the number of tenant accounts; contract i runs under i mod tenants.
const tenants = 8

// workload is one traffic mix. Sizes are public and fixed per workload: the
// result size S is the same for every seed by construction of the keys, so
// the transfer count per join is a constant of the workload and any change
// in it is a change in the program.
type workload struct {
	name    string
	shards  int
	wal     bool // DataDir set, with the simulated 1 ms device at wal.SiteSync
	clients int  // closed-loop client goroutines; each holds one connection at a time
	alg     string
	pred    service.PredicateSpec
	rows    int // rows per provider relation
	s       int // result rows of every join
	warmup  int // discarded joins before the clock starts
	// rssAfter is the join of the timed window at whose completion the
	// peak resident set is read.
	rssAfter int
	// poolPerSecond sizes the contracts prepared before the clock starts:
	// the timed window stops early if a faster program drains the pool.
	poolPerSecond float64
	// inputSets is how many distinct input pairs the contracts cycle
	// through. The large joins share one pair, whose reference join alone
	// costs tens of milliseconds.
	inputSets int
	keys      func(rng *rand.Rand, rows, s int) (a, b []int64)
}

var workloads = []workload{
	{
		name: "serve-mem", shards: 2, clients: 2, alg: "alg5",
		pred: service.PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"},
		rows: 8, s: 13, warmup: 200, rssAfter: 3000, poolPerSecond: 800, inputSets: 64, keys: serveKeys,
	},
	{
		name: "serve-wal", shards: 2, wal: true, clients: 2, alg: "alg5",
		pred: service.PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"},
		rows: 8, s: 13, warmup: 200, rssAfter: 800, poolPerSecond: 300, inputSets: 64, keys: serveKeys,
	},
	{
		name: "equijoin-2k", shards: 1, clients: 1, alg: "alg7",
		pred: service.PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"},
		rows: 2048, s: 2048, warmup: 1, rssAfter: 4, poolPerSecond: 4, inputSets: 1, keys: permKeys,
	},
	{
		name: "scan-1k", shards: 1, clients: 1, alg: "alg5",
		pred: service.PredicateSpec{Kind: "band", AttrA: "key", AttrB: "key", Param: 20},
		rows: 1024, s: 43, warmup: 1, rssAfter: 12, poolPerSecond: 8, inputSets: 1, keys: bandKeys,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// small returns the workload at about 1/100 of its size, for the smoke test.
func (w workload) small() workload {
	if w.rows > 64 {
		w.s = w.s * 64 / w.rows
		w.rows = 64
	}
	w.warmup = min(w.warmup, 2)
	w.inputSets = min(w.inputSets, 4)
	return w
}

// modelTransfers is the closed-form transfer count of one join as the
// server runs it: alg7 goes through the sorted-relation cache and misses on
// both sides, because every contract is fresh.
func (w workload) modelTransfers() int64 {
	n := int64(w.rows)
	if w.alg == "alg7" {
		return core.Join7CachedTransfers(n, n, int64(w.s), false, false)
	}
	return core.Join5Transfers([]int64{n, n}, int64(w.s), memory)
}

// serveKeys is ppjload's mix — 8 rows a side, keys in [0,5) — with the key
// multiset of each side fixed so that S = 2·2+2·2+2·1+1·2+1·1 = 13 (the
// uniform draw's mean is 12.8) and only the row order depends on the seed.
func serveKeys(rng *rand.Rand, rows, _ int) (a, b []int64) {
	a = []int64{0, 0, 1, 1, 2, 2, 3, 4}
	b = []int64{0, 0, 1, 1, 2, 3, 3, 4}
	if rows != len(a) {
		panic("benchmark: serveKeys is built for 8 rows")
	}
	rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return a, b
}

// permKeys gives each side a seeded permutation of 0..rows-1, so S = rows.
func permKeys(rng *rand.Rand, rows, _ int) (a, b []int64) {
	a, b = make([]int64, rows), make([]int64, rows)
	for i, p := range rng.Perm(rows) {
		a[i] = int64(p)
	}
	for i, p := range rng.Perm(rows) {
		b[i] = int64(p)
	}
	return a, b
}

// bandKeys spreads A over [0, 900·rows) — one key per 900-wide slot, at a
// seeded offset below 800 — and gives B exactly s keys within the band
// (width 20) of distinct A keys; every other B key sits at offset 850 of a
// slot, at least 50 from any A key. With rows = 1024 the keys span
// [0, 921600) and S = 43, the mean of a uniform draw over [0, 10^6).
func bandKeys(rng *rand.Rand, rows, s int) (a, b []int64) {
	a, b = make([]int64, rows), make([]int64, rows)
	for i, slot := range rng.Perm(rows) {
		a[i] = 900*int64(slot) + rng.Int64N(800)
	}
	for i, slot := range rng.Perm(rows) {
		if i < s {
			b[i] = a[slot] + rng.Int64N(41) - 20
		} else {
			b[i] = 900*int64(slot) + 850
		}
	}
	rng.Shuffle(rows, func(i, j int) { b[i], b[j] = b[j], b[i] })
	return a, b
}

// inputSet is one generated pair of provider relations and its reference
// join, computed before the clock starts.
type inputSet struct {
	a, b *relation.Relation
	want *relation.Relation
}

// contractCase is one prepared contract: signed, with the three parties'
// identities, ready to register.
type contractCase struct {
	contract *service.Contract
	keys     [3]ed25519.PrivateKey
	in       *inputSet
}

var partyNames = [3]string{"provA", "provB", "recip"}

// prepare generates n contracts from the seed: input pairs with their
// reference joins, and fresh ed25519 identities per contract drawn from the
// seeded generator, so the same seed gives the same inputs byte for byte.
func (w workload) prepare(seed uint64, n int) ([]contractCase, error) {
	rng := relation.NewRand(seed)
	sets := make([]inputSet, w.inputSets)
	for i := range sets {
		ka, kb := w.keys(rng, w.rows, w.s)
		a, b := relation.NewRelation(relation.KeyedSchema()), relation.NewRelation(relation.KeyedSchema())
		for r := 0; r < w.rows; r++ {
			a.MustAppend(relation.Tuple{relation.IntValue(ka[r]), relation.IntValue(rng.Int64N(1 << 40))})
			b.MustAppend(relation.Tuple{relation.IntValue(kb[r]), relation.IntValue(rng.Int64N(1 << 40))})
		}
		pred, err := w.pred.Build(a.Schema, b.Schema)
		if err != nil {
			return nil, err
		}
		want := relation.ReferenceJoin(a, b, pred)
		if want.Len() != w.s {
			return nil, fmt.Errorf("%s: generated inputs join to %d rows, the workload fixes S = %d", w.name, want.Len(), w.s)
		}
		sets[i] = inputSet{a: a, b: b, want: want}
	}
	cases := make([]contractCase, n)
	var keySeed [ed25519.SeedSize]byte
	for i := range cases {
		cc := &cases[i]
		cc.in = &sets[i%len(sets)]
		tenant := fmt.Sprintf("tenant-%d", i%tenants)
		c := &service.Contract{
			ID:        fmt.Sprintf("%s-%s-%d", w.name, tenant, i),
			Tenant:    tenant,
			Predicate: w.pred,
			Algorithm: w.alg,
			Epsilon:   1e-9,
		}
		for k, name := range partyNames {
			for off := 0; off < len(keySeed); off += 8 {
				binary.LittleEndian.PutUint64(keySeed[off:], rng.Uint64())
			}
			cc.keys[k] = ed25519.NewKeyFromSeed(keySeed[:])
			role := service.RoleProvider
			if k == 2 {
				role = service.RoleRecipient
			}
			c.Parties = append(c.Parties, service.Party{Name: name, Identity: cc.keys[k].Public().(ed25519.PublicKey), Role: role})
		}
		c.Sign(0, cc.keys[0])
		c.Sign(1, cc.keys[1])
		cc.contract = c
	}
	return cases, nil
}

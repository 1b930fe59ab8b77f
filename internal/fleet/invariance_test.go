package fleet

import (
	"context"
	"reflect"
	"testing"

	"ppj/internal/relation"
	"ppj/internal/server"
	"ppj/internal/sim"
)

// genJoinSized builds a pair of keyed relations with an exact join size s
// (each of the first s B rows matches exactly one A key; the rest miss),
// payloads and row order varying with seed. It mirrors the Algorithm 5
// public-parameter discipline from the core suite: two inputs from
// different seeds agree on (|A|, |B|, S) and nothing else.
func genJoinSized(seed uint64, nA, nB, s int) (*relation.Relation, *relation.Relation) {
	rng := relation.NewRand(seed)
	a := relation.NewRelation(relation.KeyedSchema())
	for i := 0; i < nA; i++ {
		a.MustAppend(relation.Tuple{relation.IntValue(int64(i)), relation.IntValue(rng.Int64N(1 << 30))})
	}
	b := relation.NewRelation(relation.KeyedSchema())
	rows := make([]relation.Tuple, 0, nB)
	for j := 0; j < s; j++ {
		rows = append(rows, relation.Tuple{
			relation.IntValue(int64(j % nA)),
			relation.IntValue(rng.Int64N(1 << 30)),
		})
	}
	for j := s; j < nB; j++ {
		rows = append(rows, relation.Tuple{
			relation.IntValue(int64(nA) + rng.Int64N(1<<20)),
			relation.IntValue(rng.Int64N(1 << 30)),
		})
	}
	for i := len(rows) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		rows[i], rows[j] = rows[j], rows[i]
	}
	for _, r := range rows {
		b.MustAppend(r)
	}
	return a, b
}

// TestPerShardAccessPatternInvariance lifts the core obliviousness checks
// (Def. 1 §4.2, Def. 3 §5.1.2) to the fleet: each shard is its own
// adversary-observable host, so each shard's coprocessor counters must be
// a function of public parameters only. Two two-shard fleets run the same
// contract IDs — an Algorithm 3 job pinned to shard 0 and an Algorithm 5
// job pinned to shard 1 — over inputs that agree only on the public sizes
// ((|A|, |B|, N) for alg3; (|A|, |B|, S) for alg5), with different tuple
// contents, data seeds, and coprocessor seeds. Per-shard Stats must match
// exactly; a data-dependent counter anywhere in the sharded path (router,
// session handling, per-shard device) would split them.
func TestPerShardAccessPatternInvariance(t *testing.T) {
	runFleet := func(dataSeed, copSeed uint64) ([2]sim.Stats, Snapshot) {
		t.Helper()
		rt, err := New(Config{Config: server.Config{Shards: 2, Workers: 1, Memory: 16, Seed: copSeed}})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Shutdown(context.Background())
		rt.Start()

		// Same IDs in both runs: the ring is deterministic, so idOwnedBy
		// resolves identically and each job lands on the same shard.
		relA3, relB3 := relation.GenWithMatchBound(relation.NewRand(dataSeed), 9, 14, 3)
		g3 := newGroupRels(t, idOwnedBy(t, rt.ring, 0, "inv-alg3"), "alg3", relA3, relB3)
		relA5, relB5 := genJoinSized(dataSeed+1, 8, 12, 6)
		g5 := newGroupRels(t, idOwnedBy(t, rt.ring, 1, "inv-alg5"), "alg5", relA5, relB5)

		for shard, g := range map[int]*group{0: g3, 1: g5} {
			j, err := rt.Register(g.contract)
			if err != nil {
				t.Fatal(err)
			}
			if got, _, _ := rt.ShardFor(g.contract.ID); got != shard {
				t.Fatalf("contract %q admitted on shard %d, want %d", g.contract.ID, got, shard)
			}
			driveToDelivered(t, rt.HandleConn, rt.Shard(shard).Device().DeviceKey(), g, j)
		}

		snap := rt.MetricsSnapshot()
		stats := [2]sim.Stats{snap.PerShard[0].Coprocessor, snap.PerShard[1].Coprocessor}
		// Beyond the coprocessor counters: the whole admin surface, once
		// its wall-clock fields are zeroed, is what the host H reads.
		snap.Fleet = untimed(snap.Fleet)
		for i := range snap.PerShard {
			snap.PerShard[i].Snapshot = untimed(snap.PerShard[i].Snapshot)
		}
		return stats, snap
	}

	run1, snap1 := runFleet(1001, 7)
	run2, snap2 := runFleet(2002, 8)
	if !reflect.DeepEqual(snap1, snap2) {
		t.Errorf("fleet metrics snapshot depends on tuple contents or seeds:\n run1 %+v\n run2 %+v", snap1, snap2)
	}
	for shard := range run1 {
		if run1[shard].Transfers() == 0 || run1[shard].PredEvals == 0 {
			t.Fatalf("shard %d: degenerate run %+v", shard, run1[shard])
		}
		if run1[shard] != run2[shard] {
			t.Errorf("shard %d access pattern depends on tuple contents or seeds:\n run1 %+v\n run2 %+v",
				shard, run1[shard], run2[shard])
		}
	}
}

// untimed zeroes a snapshot's wall-clock fields; what is left must be a
// function of public sizes alone.
func untimed(s server.Snapshot) server.Snapshot {
	algs := make(map[string]server.AlgSnapshot, len(s.Algorithms))
	for alg, a := range s.Algorithms {
		a.AvgMillis, a.MinMillis, a.MaxMillis = 0, 0, 0
		algs[alg] = a
	}
	s.Algorithms = algs
	return s
}

package fleet

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"ppj/internal/relation"
	"ppj/internal/server"
)

// TestShardRemovalRemapsOneNth pins the consistent-hashing property the
// ring exists for: draining one of N shards remaps only the keys that
// shard owned (about 1/N of the keyspace), every other key keeps its
// owner, and re-adding the shard restores the ORIGINAL assignment
// byte-for-byte — ring construction is a pure function of the live set.
func TestShardRemovalRemapsOneNth(t *testing.T) {
	const shards, sample = 4, 2000
	rt, err := New(Config{Config: server.Config{Shards: shards, Memory: 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())

	before := make([]int, sample)
	ownedByDrained := 0
	const drained = 2
	for i := range before {
		before[i] = rt.Owner(fmt.Sprintf("key-%d", i))
		if before[i] == drained {
			ownedByDrained++
		}
	}
	if frac := float64(ownedByDrained) / sample; frac < 0.15 || frac > 0.35 {
		t.Fatalf("shard %d owns %.0f%% of the keyspace pre-drain; ring badly unbalanced", drained, 100*frac)
	}

	if err := rt.SetShardLive(drained, false); err != nil {
		t.Fatal(err)
	}
	if rt.ShardLive(drained) {
		t.Fatal("drained shard still reports live")
	}
	moved := 0
	for i := range before {
		after := rt.Owner(fmt.Sprintf("key-%d", i))
		if before[i] == drained {
			if after == drained {
				t.Fatalf("key-%d still owned by the drained shard", i)
			}
			moved++
		} else if after != before[i] {
			t.Fatalf("key-%d moved %d -> %d though its owner stayed live (not consistent hashing)", i, before[i], after)
		}
	}
	if moved != ownedByDrained {
		t.Fatalf("%d keys moved, want exactly the %d the drained shard owned", moved, ownedByDrained)
	}

	// Re-add: the assignment is restored exactly — no key remembers the
	// drain.
	if err := rt.SetShardLive(drained, true); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if got := rt.Owner(fmt.Sprintf("key-%d", i)); got != before[i] {
			t.Fatalf("key-%d owned by %d after re-add, want %d (original ring not restored)", i, got, before[i])
		}
	}

	// Guard rails: out-of-range index, redundant transitions, and the
	// last-live-shard refusal.
	if err := rt.SetShardLive(shards, false); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
	if err := rt.SetShardLive(0, true); err != nil {
		t.Fatalf("marking a live shard live = %v, want no-op nil", err)
	}
	for i := 1; i < shards; i++ {
		if err := rt.SetShardLive(i, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.SetShardLive(0, false); err == nil {
		t.Fatal("draining the last live shard accepted; the fleet could place nothing")
	}
}

// TestShardDrainSessionsAndSpillExclusion pins what draining does NOT do:
// a drained shard's already-admitted contract keeps its directory entry,
// its provider and recipient sessions still route to it, and its job runs
// to delivery — while NEW placements avoid it entirely: ring-owned keys
// remap to live shards, and a saturated live shard refuses with
// ErrQueueFull rather than spilling onto the drained one.
func TestShardDrainSessionsAndSpillExclusion(t *testing.T) {
	// Workers stay stopped until the placement assertions are done, so
	// ready jobs park in the queue and hold shard 0 at capacity.
	rt, err := New(Config{Config: server.Config{Shards: 2, Workers: 1, QueueDepth: 1, Memory: 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())

	// A contract admitted by shard 1 before the drain.
	g1 := newGroupRels(t, idOwnedBy(t, rt.ring, 1, "drained"), "alg3",
		relation.GenKeyed(relation.NewRand(41), 6, 5), relation.GenKeyed(relation.NewRand(42), 5, 5))
	j1, err := rt.Register(g1.contract)
	if err != nil {
		t.Fatal(err)
	}
	if shard, _, _ := rt.ShardFor(g1.contract.ID); shard != 1 {
		t.Fatalf("test setup: %q admitted on shard %d, want 1", g1.contract.ID, shard)
	}

	if err := rt.SetShardLive(1, false); err != nil {
		t.Fatal(err)
	}

	// A key shard 1 used to own now places on shard 0 — a ring decision,
	// not a spill.
	g2 := newGroupRels(t, idOwnedBy(t, NewRing(2), 1, "remap"), "alg3",
		relation.GenKeyed(relation.NewRand(43), 5, 5), relation.GenKeyed(relation.NewRand(44), 6, 5))
	j2, err := rt.Register(g2.contract)
	if err != nil {
		t.Fatal(err)
	}
	if shard, _, _ := rt.ShardFor(g2.contract.ID); shard != 0 {
		t.Fatalf("remapped contract admitted on shard %d, want 0", shard)
	}
	if s := rt.MetricsSnapshot(); s.Spills != 0 {
		t.Fatalf("ring remap counted as %d spills, want 0", s.Spills)
	}

	// Saturate shard 0, then a further registration must surface
	// ErrQueueFull: the drained shard has headroom but is not a spill
	// target.
	key0 := rt.Shard(0).Device().DeviceKey()
	if err := g2.pipeProvider(rt.HandleConn, key0, g2.provA, g2.relA); err != nil {
		t.Fatal(err)
	}
	if err := g2.pipeProvider(rt.HandleConn, key0, g2.provB, g2.relB); err != nil {
		t.Fatal(err)
	}
	out2 := g2.pipeRecipient(rt.HandleConn, key0)
	waitQueueFull(t, rt.Shard(0))
	g3 := newGroupRels(t, idOwnedBy(t, rt.ring, 0, "refused"), "alg3",
		relation.GenKeyed(relation.NewRand(45), 4, 5), relation.GenKeyed(relation.NewRand(46), 4, 5))
	if _, err := rt.Register(g3.contract); !errors.Is(err, server.ErrQueueFull) {
		t.Fatalf("registration with only a drained shard free = %v, want ErrQueueFull", err)
	}
	if _, _, err := rt.ShardFor(g3.contract.ID); !errors.Is(err, server.ErrUnknownContract) {
		t.Fatalf("refused registration left a directory entry: %v", err)
	}

	// The drained shard's in-flight contract is undisturbed: sessions
	// still route to it through the directory and the job delivers.
	key1 := rt.Shard(1).Device().DeviceKey()
	if err := g1.pipeProvider(rt.HandleConn, key1, g1.provA, g1.relA); err != nil {
		t.Fatalf("provider session to drained shard: %v", err)
	}
	if err := g1.pipeProvider(rt.HandleConn, key1, g1.provB, g1.relB); err != nil {
		t.Fatalf("provider session to drained shard: %v", err)
	}
	out1 := g1.pipeRecipient(rt.HandleConn, key1)

	rt.Start()
	waitDone(t, j1)
	waitDone(t, j2)
	if o := <-out1; o.err != nil {
		t.Fatalf("drained shard's job failed: %v", o.err)
	} else {
		assertSameRows(t, o.result, g1.wantJoin(), g1.contract.ID)
	}
	if o := <-out2; o.err != nil {
		t.Fatal(o.err)
	} else {
		assertSameRows(t, o.result, g2.wantJoin(), g2.contract.ID)
	}

	// Re-add shard 1 and place on it again, end to end.
	if err := rt.SetShardLive(1, true); err != nil {
		t.Fatal(err)
	}
	g4 := newGroupRels(t, idOwnedBy(t, rt.ring, 1, "readd"), "alg3",
		relation.GenKeyed(relation.NewRand(47), 5, 5), relation.GenKeyed(relation.NewRand(48), 5, 5))
	if err := driveOne(rt, g4); err != nil {
		t.Fatal(err)
	}
	if shard, _, _ := rt.ShardFor(g4.contract.ID); shard != 1 {
		t.Fatalf("post-re-add contract admitted on shard %d, want 1", shard)
	}
}

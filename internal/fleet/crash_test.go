package fleet

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"ppj/internal/server"
	"ppj/internal/server/wal"
)

// TestPartialFleetCrash is the acceptance scenario for sharded crash
// domains: a three-shard durable fleet where shard 1's WAL is sealed (the
// host "dies") at its job's uploading->running boundary while shards 0 and
// 2 run clean. Every job still delivers live — a dead log does not stop
// the in-memory host — but the durable histories now disagree, and a fleet
// restarted on the same data dir must recover each shard independently:
//
//   - shards 0 and 2 come back with Delivered tombstones;
//   - shard 1's running job recovers as ErrInterrupted, and a contract it
//     admitted but never started resumes live and completes on the new
//     incarnation;
//   - the routing directory is rebuilt from the shard WALs, so every
//     contract answers on the shard that owned it before the crash.
//
// Alongside the crash semantics the test pins the closed form: with a
// pinned Config.Seed, each shard's coprocessor counters equal a standalone
// single-shard server running the identical contract — sharding changes
// where a job runs, never what its host observes.
func TestPartialFleetCrash(t *testing.T) {
	const seed = 777
	dir := t.TempDir()
	crashSite := server.TransitionSite(server.StateUploading, server.StateRunning)
	faults := wal.NewFaults()
	faults.Set(crashSite, wal.Always(wal.ErrCrashed))
	cfg := func() Config {
		return Config{Config: server.Config{Shards: 3, Workers: 1, Memory: 16, DataDir: dir, Seed: seed}}
	}

	boot := cfg()
	boot.ShardFaults = func(shard int) *wal.Faults {
		if shard == 1 {
			return faults
		}
		return nil
	}
	rt1, err := New(boot)
	if err != nil {
		t.Fatal(err)
	}
	rt1.Start()

	// One contract pinned to each shard, plus one more on the doomed shard
	// that is registered (durably) but never driven — it must survive the
	// crash as a live Pending job.
	groups := make([]*group, 3)
	for i := range groups {
		groups[i] = newGroup(t, idOwnedBy(t, rt1.ring, i, "pfc"), "alg5",
			uint64(31+2*i), uint64(32+2*i), 6, 6)
		if _, err := rt1.Register(groups[i].contract); err != nil {
			t.Fatal(err)
		}
		if shard, _, _ := rt1.ShardFor(groups[i].contract.ID); shard != i {
			t.Fatalf("contract %q admitted on shard %d, want %d", groups[i].contract.ID, shard, i)
		}
	}
	gPend := newGroup(t, idOwnedBy(t, rt1.ring, 1, "pfc-pend"), "alg5", 41, 42, 5, 5)
	if _, err := rt1.Register(gPend.contract); err != nil {
		t.Fatal(err)
	}

	for i, g := range groups {
		j, _, err := jobOn(rt1, g.contract.ID)
		if err != nil {
			t.Fatal(err)
		}
		driveToDelivered(t, rt1.HandleConn, rt1.Shard(i).Device().DeviceKey(), g, j)
	}

	// Pre-crash snapshot: only the doomed shard saw WAL append failures —
	// one per post-seal append (uploading->running, the result-stored
	// manifest record, running->stored, stored->delivered).
	snap1 := rt1.MetricsSnapshot()
	for i, want := range []uint64{0, 4, 0} {
		if got := snap1.PerShard[i].WALAppendFailures; got != want {
			t.Errorf("shard %d wal_append_failures = %d, want %d", i, got, want)
		}
	}
	if snap1.Fleet.WALAppendFailures != 4 {
		t.Errorf("fleet wal_append_failures = %d, want 4", snap1.Fleet.WALAppendFailures)
	}

	// Closed form: each shard's coprocessor counters equal a standalone
	// same-seed server executing the identical contract.
	for i, g := range groups {
		solo, err := server.New(server.Config{Workers: 1, Memory: 16, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		solo.Start()
		j, err := solo.Register(g.contract)
		if err != nil {
			t.Fatal(err)
		}
		driveToDelivered(t, soloHandler(solo), solo.Device().DeviceKey(), g, j)
		want := solo.MetricsSnapshot().Coprocessor
		if got := snap1.PerShard[i].Coprocessor; got != want {
			t.Errorf("shard %d coprocessor stats diverge from single-shard closed form:\n got %+v\nwant %+v", i, got, want)
		}
		if want.Gets == 0 || want.PredEvals == 0 {
			t.Errorf("closed form for shard %d is vacuous: %+v", i, want)
		}
		if err := solo.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// Whole-process crash: rt1 is abandoned without Shutdown. Shard 1's
	// durable history ends at Uploading; shards 0 and 2 logged Delivered.
	rt2, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	wantTable := fmt.Sprintf(""+
		"shard 0:\n  %s delivered err=<nil>\n"+
		"shard 1:\n  %s failed err=%v\n  %s pending err=<nil>\n"+
		"shard 2:\n  %s delivered err=<nil>\n",
		groups[0].contract.ID, groups[1].contract.ID, server.ErrInterrupted,
		gPend.contract.ID, groups[2].contract.ID)
	if got := renderFleetJobTable(rt2); got != wantTable {
		t.Fatalf("recovered fleet job table:\n%s\nwant:\n%s", got, wantTable)
	}

	// The directory is rebuilt from the shard WALs.
	for i, g := range groups {
		if shard, _, err := rt2.ShardFor(g.contract.ID); err != nil || shard != i {
			t.Fatalf("recovered routing for %q: shard %d err %v, want shard %d", g.contract.ID, shard, err, i)
		}
	}

	// Shard 1's interrupted job carries the typed sentinel, and a
	// reconnecting recipient gets the verdict immediately.
	jInt, sh1, err := jobOn(rt2, groups[1].contract.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jInt.State() != server.StateFailed || !errors.Is(jInt.Err(), server.ErrInterrupted) {
		t.Fatalf("interrupted job recovered as %s err=%v", jInt.State(), jInt.Err())
	}
	if o := <-groups[1].pipeRecipient(rt2.HandleConn, sh1.Device().DeviceKey()); o.err == nil || !strings.Contains(o.err.Error(), "interrupted") {
		t.Fatalf("recipient on crashed shard got %+v, want interrupted verdict", o)
	}
	// Survivors keep serving: a delivered result lives in the shard's
	// durable result store, so a reconnecting recipient is handed the
	// exact join again across the whole-fleet restart.
	_, sh0, err := rt2.ShardFor(groups[0].contract.ID)
	if err != nil {
		t.Fatal(err)
	}
	if o := <-groups[0].pipeRecipient(rt2.HandleConn, sh0.Device().DeviceKey()); o.err != nil {
		t.Fatalf("recipient on surviving shard refused: %v (want re-fetch from the result store)", o.err)
	} else {
		assertSameRows(t, o.result, groups[0].wantJoin(), "survivor refetch")
	}

	// The pending contract resumes live on the recovered fleet.
	rt2.Start()
	jPend, shP, err := jobOn(rt2, gPend.contract.ID)
	if err != nil {
		t.Fatal(err)
	}
	driveToDelivered(t, rt2.HandleConn, shP.Device().DeviceKey(), gPend, jPend)

	// A second restart reaches the identical verdicts — per-shard recovery
	// wrote its conclusions back to each WAL.
	table2 := renderFleetJobTable(rt2)
	if err := rt2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rt3, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if got := renderFleetJobTable(rt3); got != table2 {
		t.Fatalf("second fleet recovery diverged:\n%s\nfirst recovery:\n%s", got, table2)
	}
	j3, _, err := jobOn(rt3, groups[1].contract.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(j3.Err(), server.ErrInterrupted) {
		t.Fatalf("second recovery err = %v, want the typed sentinel to survive replay", j3.Err())
	}
	if err := rt3.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestTornResultManifest tears a shard's result-store manifest mid-write:
// shard 1's WAL is sealed at the result-stored faultpoint, so the segment
// reaches disk but its manifest record (and every later transition) does
// not. The live fleet still delivers — the outcome is cached in memory —
// but a restart must reconcile the disagreement per shard:
//
//   - shard 0 (healthy) recovers Delivered with its result intact and
//     re-serves the exact join from the durable store;
//   - shard 1's durable history ends at Running, so its job recovers as
//     the interrupted tombstone, and the orphan segment — present on disk
//     at crash time — is removed, counted once in the shard's
//     result_store_recovery_evictions and nowhere else.
func TestTornResultManifest(t *testing.T) {
	const seed = 888
	dir := t.TempDir()
	faults := wal.NewFaults()
	faults.Set(server.SiteResultStored, wal.Always(wal.ErrCrashed))
	cfg := func() Config {
		return Config{Config: server.Config{Shards: 2, Workers: 1, Memory: 16, DataDir: dir, Seed: seed}}
	}

	boot := cfg()
	boot.ShardFaults = func(shard int) *wal.Faults {
		if shard == 1 {
			return faults
		}
		return nil
	}
	rt1, err := New(boot)
	if err != nil {
		t.Fatal(err)
	}
	rt1.Start()

	gOK := newGroup(t, idOwnedBy(t, rt1.ring, 0, "trm-ok"), "alg5", 61, 62, 5, 5)
	gTorn := newGroup(t, idOwnedBy(t, rt1.ring, 1, "trm-torn"), "alg5", 63, 64, 5, 5)
	for i, g := range []*group{gOK, gTorn} {
		if _, err := rt1.Register(g.contract); err != nil {
			t.Fatal(err)
		}
		j, _, err := jobOn(rt1, g.contract.ID)
		if err != nil {
			t.Fatal(err)
		}
		driveToDelivered(t, rt1.HandleConn, rt1.Shard(i).Device().DeviceKey(), g, j)
	}

	// The seal hit at the manifest append, so only the torn shard counts
	// refused appends: result-stored, running->stored, stored->delivered.
	snap1 := rt1.MetricsSnapshot()
	for i, want := range []uint64{0, 3} {
		if got := snap1.PerShard[i].WALAppendFailures; got != want {
			t.Errorf("shard %d wal_append_failures = %d, want %d", i, got, want)
		}
	}
	// The orphan segment made it to disk before the tear.
	tornSegs := filepath.Join(dir, "shard-1", "results", "*.res")
	if segs, _ := filepath.Glob(tornSegs); len(segs) != 1 {
		t.Fatalf("torn shard has %d segments pre-crash, want the orphan", len(segs))
	}

	// Whole-process crash: rt1 abandoned without Shutdown.
	rt2, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}

	// Healthy shard: Delivered tombstone, result re-served byte-identically
	// from its durable store.
	jOK, shOK, err := jobOn(rt2, gOK.contract.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jOK.State() != server.StateDelivered {
		t.Fatalf("healthy job recovered as %s, want delivered", jOK.State())
	}
	if o := <-gOK.pipeRecipient(rt2.HandleConn, shOK.Device().DeviceKey()); o.err != nil {
		t.Fatalf("healthy shard refused refetch: %v", o.err)
	} else {
		assertSameRows(t, o.result, gOK.wantJoin(), "healthy refetch")
	}

	// Torn shard: consistent interrupted tombstone — the job never durably
	// reached Stored, so recipients get the crash verdict, not an eviction.
	jTorn, shTorn, err := jobOn(rt2, gTorn.contract.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jTorn.State() != server.StateFailed || !errors.Is(jTorn.Err(), server.ErrInterrupted) {
		t.Fatalf("torn job recovered as %s err=%v, want interrupted failure", jTorn.State(), jTorn.Err())
	}
	if o := <-gTorn.pipeRecipient(rt2.HandleConn, shTorn.Device().DeviceKey()); o.err == nil || !strings.Contains(o.err.Error(), "interrupted") {
		t.Fatalf("torn shard recipient got %+v, want interrupted verdict", o)
	}

	// The orphan segment is reclaimed, and only the torn shard counts a
	// recovery eviction; the healthy shard's result still occupies bytes.
	if segs, _ := filepath.Glob(tornSegs); len(segs) != 0 {
		t.Fatalf("orphan segment survived recovery: %v", segs)
	}
	snap2 := rt2.MetricsSnapshot()
	for i, want := range []uint64{0, 1} {
		if got := snap2.PerShard[i].ResultStoreRecoveryEvictions; got != want {
			t.Errorf("shard %d result_store_recovery_evictions = %d, want %d", i, got, want)
		}
	}
	if snap2.Fleet.ResultStoreRecoveryEvictions != 1 {
		t.Errorf("fleet result_store_recovery_evictions = %d, want 1", snap2.Fleet.ResultStoreRecoveryEvictions)
	}
	if snap2.PerShard[0].ResultStoreBytes == 0 {
		t.Error("healthy shard's stored result vanished from the store")
	}
	if snap2.PerShard[1].ResultStoreBytes != 0 {
		t.Errorf("torn shard still accounts %d result bytes", snap2.PerShard[1].ResultStoreBytes)
	}

	// A second restart reaches the identical table — recovery wrote the
	// interrupted verdict back to the torn shard's (healthy, reopened) WAL.
	table := renderFleetJobTable(rt2)
	if err := rt2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rt3, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if got := renderFleetJobTable(rt3); got != table {
		t.Fatalf("second recovery diverged:\n%s\nfirst recovery:\n%s", got, table)
	}
	if err := rt3.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// jobOn resolves a contract to its job and admitting shard through the
// router directory.
func jobOn(rt *Router, id string) (*server.Job, *server.Server, error) {
	_, sh, err := rt.ShardFor(id)
	if err != nil {
		return nil, nil, err
	}
	j, err := sh.Registry().Lookup(id, "")
	if err != nil {
		return nil, nil, err
	}
	return j, sh, nil
}

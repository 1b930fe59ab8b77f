package fleet

import (
	"context"
	"path/filepath"
	"testing"

	"ppj/internal/server"
	"ppj/internal/server/wal"
	"ppj/internal/service"
)

// seedShardWAL hand-writes one shard's WAL: each contract registered, then
// driven through the given transition chain. Keeping every job recovered
// (never executed live) keeps the Algorithms latency summaries empty, so
// the fleet snapshot below is byte-for-byte deterministic.
type walTransition struct {
	from, to server.State
	cause    string
}

func seedShardWAL(t *testing.T, dir string, jobs map[*group][]walTransition, order []*group) {
	t.Helper()
	log, err := wal.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range order {
		recs := []wal.Record{{Type: wal.TypeRegistered, Contract: service.MarshalContract(g.contract)}}
		for _, tr := range jobs[g] {
			recs = append(recs, wal.Record{Type: wal.TypeTransition, ContractID: g.contract.ID, From: int32(tr.from), To: int32(tr.to), Cause: tr.cause})
		}
		for _, rec := range recs {
			if err := log.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetMetricsGoldenSnapshot boots a two-shard fleet from hand-built
// per-shard WALs — shard 0 recovered one Delivered and one Failed job,
// shard 1 one Pending — and asserts the full fleet snapshot JSON byte for
// byte: per-shard sections in shard order, the cross-shard aggregate, and
// the router's spill counter. Any drift in the admin surface (a renamed
// key, a gauge that leaks across shards, an aggregate that double-counts)
// breaks the golden.
func TestFleetMetricsGoldenSnapshot(t *testing.T) {
	dir := t.TempDir()
	ring := NewRing(2)
	gA := newGroup(t, idOwnedBy(t, ring, 0, "gm-a"), "alg5", 51, 52, 4, 4)
	gB := newGroup(t, idOwnedBy(t, ring, 0, "gm-b"), "alg5", 53, 54, 4, 4)
	gC := newGroup(t, idOwnedBy(t, ring, 1, "gm-c"), "alg5", 55, 56, 4, 4)

	seedShardWAL(t, filepath.Join(dir, "shard-0"), map[*group][]walTransition{
		gA: {
			{server.StatePending, server.StateUploading, ""},
			{server.StateUploading, server.StateRunning, ""},
			{server.StateRunning, server.StateDelivered, ""},
		},
		gB: {
			{server.StatePending, server.StateUploading, ""},
			{server.StateUploading, server.StateRunning, ""},
			{server.StateRunning, server.StateFailed, "context deadline exceeded"},
		},
	}, []*group{gA, gB})
	seedShardWAL(t, filepath.Join(dir, "shard-1"), map[*group][]walTransition{
		gC: nil,
	}, []*group{gC})

	rt, err := New(Config{Config: server.Config{Shards: 2, Workers: 1, Memory: 16, DataDir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())

	// The recovered directory routes every contract to the shard whose WAL
	// registered it.
	for g, want := range map[*group]int{gA: 0, gB: 0, gC: 1} {
		if shard, _, err := rt.ShardFor(g.contract.ID); err != nil || shard != want {
			t.Fatalf("recovered routing for %q: shard %d err %v, want %d", g.contract.ID, shard, err, want)
		}
	}

	js, err := rt.MetricsSnapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "per_shard": [
    {
      "shard": 0,
      "submitted": 2,
      "jobs": {
        "delivered": 1,
        "failed": 1,
        "pending": 0,
        "running": 0,
        "stored": 0,
        "uploading": 0
      },
      "queue_depth": 0,
      "wal_append_failures": 0,
      "algorithms": {},
      "coprocessor": {
        "Gets": 0,
        "Puts": 0,
        "LogicalReads": 0,
        "Comparisons": 0,
        "PredEvals": 0,
        "DiskRequests": 0
      },
      "devices": {
        "parallel_runs": 0,
        "attached": 0,
        "max": 0
      },
      "result_store_bytes": 0,
      "result_store_evictions": 0,
      "result_store_recovery_evictions": 0,
      "sort_cache_bytes": 0,
      "sort_cache_evictions": 0,
      "sort_cache_hits": 0,
      "sort_cache_misses": 0,
      "recurrences_fired": 0,
      "recurrences_skipped": 0
    },
    {
      "shard": 1,
      "submitted": 1,
      "jobs": {
        "delivered": 0,
        "failed": 0,
        "pending": 1,
        "running": 0,
        "stored": 0,
        "uploading": 0
      },
      "queue_depth": 0,
      "wal_append_failures": 0,
      "algorithms": {},
      "coprocessor": {
        "Gets": 0,
        "Puts": 0,
        "LogicalReads": 0,
        "Comparisons": 0,
        "PredEvals": 0,
        "DiskRequests": 0
      },
      "devices": {
        "parallel_runs": 0,
        "attached": 0,
        "max": 0
      },
      "result_store_bytes": 0,
      "result_store_evictions": 0,
      "result_store_recovery_evictions": 0,
      "sort_cache_bytes": 0,
      "sort_cache_evictions": 0,
      "sort_cache_hits": 0,
      "sort_cache_misses": 0,
      "recurrences_fired": 0,
      "recurrences_skipped": 0
    }
  ],
  "fleet": {
    "submitted": 3,
    "jobs": {
      "delivered": 1,
      "failed": 1,
      "pending": 1,
      "running": 0,
      "stored": 0,
      "uploading": 0
    },
    "queue_depth": 0,
    "wal_append_failures": 0,
    "algorithms": {},
    "coprocessor": {
      "Gets": 0,
      "Puts": 0,
      "LogicalReads": 0,
      "Comparisons": 0,
      "PredEvals": 0,
      "DiskRequests": 0
    },
    "devices": {
      "parallel_runs": 0,
      "attached": 0,
      "max": 0
    },
    "result_store_bytes": 0,
    "result_store_evictions": 0,
    "result_store_recovery_evictions": 0,
    "sort_cache_bytes": 0,
    "sort_cache_evictions": 0,
    "sort_cache_hits": 0,
    "sort_cache_misses": 0,
    "recurrences_fired": 0,
    "recurrences_skipped": 0
  },
  "spills": 0
}`
	if string(js) != want {
		t.Fatalf("fleet metrics snapshot:\n%s\nwant:\n%s", js, want)
	}
}

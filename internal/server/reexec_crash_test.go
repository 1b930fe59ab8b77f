package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppj/internal/server/wal"
)

// renderExecutions is the deterministic per-execution view the
// re-execution crash suite asserts byte-for-byte: every execution of
// every contract, in registration then submission order, with job ID,
// sequence number, state, and failure cause.
func renderExecutions(s *Server) string {
	var b strings.Builder
	for _, id := range s.Registry().ContractIDs() {
		for _, j := range s.Registry().Executions(id) {
			fmt.Fprintf(&b, "%s seq=%d %s err=%v\n", j.ID(), j.seq, j.State(), j.Err())
		}
	}
	return b.String()
}

// TestCrashDuringResubmitLeavesNoGhost seals the WAL at the resubmission
// record's append: the caller gets the crash error, the in-memory
// registry keeps only the admitted execution, the quota slot acquired for
// the doomed re-execution is returned, and two successive restarts
// recover the identical single-execution history — byte-for-byte.
func TestCrashDuringResubmitLeavesNoGhost(t *testing.T) {
	dir := t.TempDir()
	faults := wal.NewFaults()
	faults.Set(SiteResubmit, wal.Always(wal.ErrCrashed))
	srv1, err := New(Config{Workers: 1, Memory: 16, DataDir: dir, Faults: faults, TenantMaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	g := tenantGroup(t, "crash-resub", "acme", 40)
	if _, err := srv1.Register(g.contract); err != nil {
		t.Fatal(err)
	}
	if _, err := srv1.Resubmit(g.contract.ID); !errors.Is(err, wal.ErrCrashed) {
		t.Fatalf("resubmit against the sealed WAL = %v, want wrapped wal.ErrCrashed", err)
	}
	if n := len(srv1.Registry().Executions(g.contract.ID)); n != 1 {
		t.Fatalf("failed resubmission left %d executions in memory, want 1", n)
	}
	if held := srv1.quotas.InFlight("acme"); held != 1 {
		t.Fatalf("tenant holds %d slots after the failed resubmission, want 1 (the registration)", held)
	}

	srv2, err := New(Config{Workers: 1, Memory: 16, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := "crash-resub seq=1 pending err=<nil>\n"
	if got := renderExecutions(srv2); got != want {
		t.Fatalf("recovered executions:\n%s\nwant:\n%s", got, want)
	}
	srv3, err := New(Config{Workers: 1, Memory: 16, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderExecutions(srv3); got != want {
		t.Fatalf("second recovery diverged:\n%s\nwant:\n%s", got, want)
	}
}

// TestResubmissionRecoveredAcrossRestart runs a contract to delivery,
// resubmits, then "crashes" before the re-execution uploads anything. The
// restarted server rebuilds the full execution history — the delivered
// first run and the pending second run — restores the pending run's
// quota slot, and serves the re-execution WARM from the recovered
// sorted-relation cache. A further restart recovers the two-execution
// history identically (byte-for-byte against the pre-restart rendering).
func TestResubmissionRecoveredAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Config{Workers: 1, Memory: 16, DataDir: dir, TenantMaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv1.Start()
	relA, relB := genJoinSized(55, 16, 16, 6)
	g := newGroupRels(t, "resub-recover", "alg7", relA, relB)
	g.contract.Tenant = "acme"
	g.contract.Sign(0, g.provA.priv)
	g.contract.Sign(1, g.provB.priv)
	j1, err := srv1.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}
	runExecution(t, srv1, g, j1)
	if _, err := srv1.Resubmit(g.contract.ID); err != nil {
		t.Fatal(err)
	}
	// Crash here: the resubmission is journaled but never uploaded to.

	srv2, err := New(Config{Workers: 1, Memory: 16, DataDir: dir, TenantMaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := "resub-recover seq=1 delivered err=<nil>\n" +
		"resub-recover#2 seq=2 pending err=<nil>\n"
	if got := renderExecutions(srv2); got != want {
		t.Fatalf("recovered executions:\n%s\nwant:\n%s", got, want)
	}
	if held := srv2.quotas.InFlight("acme"); held != 1 {
		t.Fatalf("recovery restored %d quota slots, want 1 (the pending re-execution)", held)
	}
	if bytes := srv2.MetricsSnapshot().SortCacheBytes; bytes <= 0 {
		t.Fatalf("recovery lost the sorted-relation cache (%d bytes)", bytes)
	}

	// The recovered pending job is live: the same uploads complete it, and
	// the recovered cache serves both sides warm.
	srv2.Start()
	j2, err := srv2.Registry().Lookup(g.contract.ID, g.contract.ID+"#2")
	if err != nil {
		t.Fatal(err)
	}
	base := srv2.MetricsSnapshot()
	runExecution(t, srv2, g, j2)
	end := srv2.MetricsSnapshot()
	if hits, misses := end.SortCacheHits-base.SortCacheHits, end.SortCacheMisses-base.SortCacheMisses; hits != 2 || misses != 0 {
		t.Fatalf("recovered re-execution: %d hits / %d misses, want 2/0 (warm from the recovered cache)", hits, misses)
	}
	if held := srv2.quotas.InFlight("acme"); held != 0 {
		t.Fatalf("tenant holds %d slots after the re-execution settled, want 0", held)
	}

	// Idempotence: restarting over the settled log reproduces the final
	// history exactly, twice.
	want = "resub-recover seq=1 delivered err=<nil>\n" +
		"resub-recover#2 seq=2 delivered err=<nil>\n"
	for i := 0; i < 2; i++ {
		srvN, err := New(Config{Workers: 1, Memory: 16, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderExecutions(srvN); got != want {
			t.Fatalf("restart %d executions:\n%s\nwant:\n%s", i+2, got, want)
		}
	}
}

// TestTornCacheManifestEvictsOnlyCache fails every cache-manifest append:
// the execution still delivers (the cache is a hint, not state), but the
// stored sorted forms are unmanifested segments a restart treats as
// orphans. Recovery evicts ONLY the cached forms — the job history is
// intact and the contract is still runnable cold.
func TestTornCacheManifestEvictsOnlyCache(t *testing.T) {
	dir := t.TempDir()
	faults := wal.NewFaults()
	// ErrTornWrite (unlike ErrCrashed) does not seal the log: only the
	// cache-manifest appends fail, everything else stays journaled.
	faults.Set(SiteCacheStored, wal.Always(wal.ErrTornWrite))
	srv1, err := New(Config{Workers: 1, Memory: 16, DataDir: dir, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	srv1.Start()
	relA, relB := genJoinSized(66, 12, 12, 5)
	g := newGroupRels(t, "torn-cache", "alg7", relA, relB)
	j1, err := srv1.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}
	runExecution(t, srv1, g, j1)
	if snap := srv1.MetricsSnapshot(); snap.WALAppendFailures == 0 {
		t.Fatal("the injected cache-manifest failures were never hit")
	}

	srv2, err := New(Config{Workers: 1, Memory: 16, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	snap := srv2.MetricsSnapshot()
	if snap.SortCacheBytes != 0 {
		t.Fatalf("unmanifested cache segments survived recovery: %d bytes", snap.SortCacheBytes)
	}
	want := "torn-cache seq=1 delivered err=<nil>\n"
	if got := renderExecutions(srv2); got != want {
		t.Fatalf("recovered executions:\n%s\nwant:\n%s", got, want)
	}

	// Still runnable — cold: both sides miss and re-populate.
	srv2.Start()
	j2, err := srv2.Resubmit(g.contract.ID)
	if err != nil {
		t.Fatal(err)
	}
	base := srv2.MetricsSnapshot()
	runExecution(t, srv2, g, j2)
	end := srv2.MetricsSnapshot()
	if hits, misses := end.SortCacheHits-base.SortCacheHits, end.SortCacheMisses-base.SortCacheMisses; hits != 0 || misses != 2 {
		t.Fatalf("re-execution after cache loss: %d hits / %d misses, want 0/2 (cold)", hits, misses)
	}
	if end.SortCacheBytes <= 0 {
		t.Fatal("cold re-execution did not repopulate the cache")
	}
}

// TestOldSegmentVersionReadsTorn restarts over segments of the previous
// format (magic PPJRES1), which this version does not migrate: they take
// the torn path. The delivered result is tombstoned and its recipient gets
// the typed torn eviction; the sorted-relation cache misses and the
// re-execution sorts cold.
func TestOldSegmentVersionReadsTorn(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Config{Workers: 1, Memory: 16, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv1.Start()
	relA, relB := genJoinSized(67, 12, 12, 5)
	g := newGroupRels(t, "old-segments", "alg7", relA, relB)
	j1, err := srv1.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}
	runExecution(t, srv1, g, j1)
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*", "seg-*.res"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("%d segments on disk, want 3 (the result and two sorted halves)", len(segs))
	}
	for _, path := range segs {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copy(raw, "PPJRES1\n")
		if err := os.WriteFile(path, raw, 0o600); err != nil {
			t.Fatal(err)
		}
	}

	srv2, err := New(Config{Workers: 1, Memory: 16, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var ev *ResultEvictedError
	if _, err := srv2.loadResult(g.contract.ID); !errors.As(err, &ev) || ev.Cause != "torn" {
		t.Fatalf("loadResult over a PPJRES1 segment: %v, want *ResultEvictedError (torn)", err)
	}
	if o := <-g.pipeRecipient(t, srv2); o.err == nil || !strings.Contains(o.err.Error(), "(torn)") {
		t.Fatalf("recipient over a PPJRES1 segment got %+v, want the in-band torn verdict", o)
	}
	if bytes := srv2.MetricsSnapshot().SortCacheBytes; bytes != 0 {
		t.Fatalf("PPJRES1 cache segments survived recovery: %d bytes", bytes)
	}

	srv2.Start()
	j2, err := srv2.Resubmit(g.contract.ID)
	if err != nil {
		t.Fatal(err)
	}
	base := srv2.MetricsSnapshot()
	runExecution(t, srv2, g, j2)
	end := srv2.MetricsSnapshot()
	if hits, misses := end.SortCacheHits-base.SortCacheHits, end.SortCacheMisses-base.SortCacheMisses; hits != 0 || misses != 2 {
		t.Fatalf("re-execution over PPJRES1 cache segments: %d hits / %d misses, want 0/2 (cold)", hits, misses)
	}
}

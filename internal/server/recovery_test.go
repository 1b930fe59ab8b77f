package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ppj/internal/relation"
	"ppj/internal/server/wal"
	"ppj/internal/service"
)

// renderJobTable is the deterministic job-table view the recovery suite
// asserts byte-for-byte: one line per registered job, in registration
// order.
func renderJobTable(s *Server) string {
	var b strings.Builder
	for _, j := range s.Registry().Jobs() {
		fmt.Fprintf(&b, "%s %s err=%v\n", j.Contract().ID, j.State(), j.Err())
	}
	return b.String()
}

// driveToDelivered pushes one group's job through the full lifecycle on a
// started server.
func driveToDelivered(t *testing.T, srv *Server, g *group, j *Job) {
	t.Helper()
	if err := g.pipeProvider(t, srv, g.provA, g.relA); err != nil {
		t.Fatal(err)
	}
	if err := g.pipeProvider(t, srv, g.provB, g.relB); err != nil {
		t.Fatal(err)
	}
	out := g.pipeRecipient(t, srv)
	waitDone(t, j)
	if o := <-out; o.err != nil {
		t.Fatal(o.err)
	} else {
		assertSameRows(t, o.result, g.wantJoin(), g.contract.ID)
	}
}

// TestRecoverRebuildsJobTable is the golden-state acceptance test: a
// server with a WAL runs one job to Delivered, cancels another, leaves a
// third Pending, and "crashes" (is abandoned without Shutdown). A new
// server on the same data dir must rebuild the exact job table and report
// the exact metrics snapshot, byte for byte.
func TestRecoverRebuildsJobTable(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Config{Workers: 1, Memory: 16, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv1.Start()

	gA := newGroup(t, "rec-a", "alg5", 81, 82, 5, 5)
	jA, err := srv1.Register(gA.contract)
	if err != nil {
		t.Fatal(err)
	}
	driveToDelivered(t, srv1, gA, jA)

	gB := newGroup(t, "rec-b", "alg5", 83, 84, 5, 5)
	jB, err := srv1.Register(gB.contract)
	if err != nil {
		t.Fatal(err)
	}
	jB.Cancel()
	waitDone(t, jB)

	gC := newGroup(t, "rec-c", "alg5", 85, 86, 5, 5)
	if _, err := srv1.Register(gC.contract); err != nil {
		t.Fatal(err)
	}
	// Host crash: srv1 is abandoned with its WAL intact.

	srv2, err := New(Config{Workers: 1, Memory: 16, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	wantTable := "" +
		"rec-a delivered err=<nil>\n" +
		"rec-b failed err=context canceled\n" +
		"rec-c pending err=<nil>\n"
	if got := renderJobTable(srv2); got != wantTable {
		t.Fatalf("recovered job table:\n%s\nwant:\n%s", got, wantTable)
	}

	js, err := json.MarshalIndent(srv2.MetricsSnapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantSnap := `{
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
  "result_store_bytes": 182,
  "result_store_evictions": 0,
  "result_store_recovery_evictions": 0,
  "sort_cache_bytes": 0,
  "sort_cache_evictions": 0,
  "sort_cache_hits": 0,
  "sort_cache_misses": 0,
  "recurrences_fired": 0,
  "recurrences_skipped": 0
}`
	if string(js) != wantSnap {
		t.Fatalf("recovered metrics snapshot:\n%s\nwant:\n%s", js, wantSnap)
	}

	// Registrations are durable: re-admitting a recovered contract is a
	// duplicate.
	if _, err := srv2.Register(gA.contract); err == nil {
		t.Fatal("re-registration of recovered contract accepted")
	}
	// The recovered-failed job answers a reconnecting recipient at once.
	if o := <-gB.pipeRecipient(t, srv2); o.err == nil || !strings.Contains(o.err.Error(), "canceled") {
		t.Fatalf("recovered-failed recipient outcome = %+v, want replayed cancellation", o)
	}
	// The recovered-Delivered job's result outlived the crash in the
	// durable result store (the 304 bytes in the snapshot above): a
	// reconnecting recipient is served the exact join again, across the
	// restart.
	if o := <-gA.pipeRecipient(t, srv2); o.err != nil {
		t.Fatalf("recovered-delivered re-fetch refused: %v", o.err)
	} else {
		assertSameRows(t, o.result, gA.wantJoin(), "rec-a refetch")
	}

	// The Pending job resumed live: drive it to Delivered on the new
	// server (clients pin the new device key; identities came from the
	// recovered contract).
	srv2.Start()
	jC, err := srv2.Registry().Lookup("rec-c", "")
	if err != nil {
		t.Fatal(err)
	}
	driveToDelivered(t, srv2, gC, jC)

	// A third incarnation sees the final table — recovery is idempotent.
	if err := srv2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv3, err := New(Config{Workers: 1, Memory: 16, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	wantTable = "" +
		"rec-a delivered err=<nil>\n" +
		"rec-b failed err=context canceled\n" +
		"rec-c delivered err=<nil>\n"
	if got := renderJobTable(srv3); got != wantTable {
		t.Fatalf("second recovery job table:\n%s\nwant:\n%s", got, wantTable)
	}
}

// TestCrashBetweenTransitions freezes the WAL at every adjacent state
// boundary via crash faultpoints, restarts on the same dir, and asserts
// the deterministic recovered verdict: a job whose durable state was
// Pending resumes; Uploading or Running at crash time is ErrInterrupted —
// even when the in-memory job went further (or failed differently) after
// the crash instant; Stored at crash time resumes serving its durable
// result to reconnecting recipients.
func TestCrashBetweenTransitions(t *testing.T) {
	cases := []struct {
		name      string
		crashSite string
		cancel    bool // cancel after the first upload instead of finishing
		wantState State
		wantErr   error // nil means the job must be live or serving
	}{
		{"pending-uploading", TransitionSite(StatePending, StateUploading), false, StatePending, nil},
		{"uploading-running", TransitionSite(StateUploading, StateRunning), false, StateFailed, ErrInterrupted},
		{"running-stored", TransitionSite(StateRunning, StateStored), false, StateFailed, ErrInterrupted},
		{"stored-delivered", TransitionSite(StateStored, StateDelivered), false, StateStored, nil},
		{"uploading-failed", TransitionSite(StateUploading, StateFailed), true, StateFailed, ErrInterrupted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			faults := wal.NewFaults()
			faults.Set(tc.crashSite, wal.Always(wal.ErrCrashed))
			srv1, err := New(Config{Workers: 1, Memory: 16, DataDir: dir, Faults: faults})
			if err != nil {
				t.Fatal(err)
			}
			srv1.Start()
			g := newGroup(t, "crash-"+tc.name, "alg5", 91, 92, 5, 5)
			j, err := srv1.Register(g.contract)
			if err != nil {
				t.Fatal(err)
			}
			if tc.cancel {
				if err := g.pipeProvider(t, srv1, g.provA, g.relA); err != nil {
					t.Fatal(err)
				}
				j.Cancel()
				waitDone(t, j)
			} else {
				driveToDelivered(t, srv1, g, j)
			}
			// Abandon srv1: the WAL was sealed at the crash site, so the
			// durable history ends just before that transition.

			srv2, err := New(Config{Workers: 1, Memory: 16, DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			j2, err := srv2.Registry().Lookup(g.contract.ID, "")
			if err != nil {
				t.Fatal(err)
			}
			if j2.State() != tc.wantState {
				t.Fatalf("recovered state = %s, want %s (err %v)", j2.State(), tc.wantState, j2.Err())
			}
			if tc.wantErr != nil {
				if !errors.Is(j2.Err(), tc.wantErr) {
					t.Fatalf("recovered err = %v, want %v", j2.Err(), tc.wantErr)
				}
				// Reconnecting recipients get the interrupted verdict
				// immediately instead of hanging.
				if o := <-g.pipeRecipient(t, srv2); o.err == nil || !strings.Contains(o.err.Error(), "interrupted") {
					t.Fatalf("recipient outcome = %+v, want interrupted failure", o)
				}
			} else if tc.wantState == StateStored {
				// The result survived in the durable store: a reconnecting
				// recipient is served the exact join without re-running
				// anything, and the served fetch completes the lifecycle.
				if o := <-g.pipeRecipient(t, srv2); o.err != nil {
					t.Fatalf("stored-job re-fetch refused: %v", o.err)
				} else {
					assertSameRows(t, o.result, g.wantJoin(), tc.name)
				}
				waitDone(t, j2)
				if j2.State() != StateDelivered {
					t.Fatalf("served job ended %s, want Delivered", j2.State())
				}
			} else {
				// The resumed job runs to completion on the new server.
				srv2.Start()
				driveToDelivered(t, srv2, g, j2)
			}

			// A second restart reaches the identical verdict: recovery
			// wrote its conclusions back to the WAL.
			table2 := renderJobTable(srv2)
			if err := srv2.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			srv3, err := New(Config{Workers: 1, Memory: 16, DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if got := renderJobTable(srv3); got != table2 {
				t.Fatalf("second recovery diverged:\n%s\nfirst recovery:\n%s", got, table2)
			}
			if tc.wantErr != nil {
				j3, _ := srv3.Registry().Lookup(g.contract.ID, "")
				if !errors.Is(j3.Err(), tc.wantErr) {
					t.Fatalf("second recovery err = %v, want the typed sentinel to survive replay", j3.Err())
				}
			}
		})
	}
}

// TestRecoveryAfterWriteFaults runs the server through injected storage
// failures — short write, torn final record, fsync failure — restarts on
// the same WAL dir, and asserts the deterministic recovered job table.
func TestRecoveryAfterWriteFaults(t *testing.T) {
	cases := []struct {
		name string
		set  func(f *wal.Faults)
		// Appends in a full run (SiteAppend): 1=registration,
		// 2=pending->uploading, 3=uploading->running, 4=result-stored
		// manifest, 5=running->stored, 6=stored->delivered. Syncs
		// (SiteSync): 1 after the registration, 2 after running->stored
		// (making 2-5 durable), 3 after stored->delivered.
		wantState State
		wantErr   error
	}{
		// Registration durable, first transition torn off: durable state
		// Pending, job resumes.
		{"short-write", func(f *wal.Faults) { f.Set(wal.SiteAppend, wal.FailNth(2, wal.ErrShortWrite)) }, StatePending, nil},
		// Uploading on disk, running record torn mid-header.
		{"torn-tail", func(f *wal.Faults) { f.Set(wal.SiteAppend, wal.FailNth(3, wal.ErrTornWrite)) }, StateFailed, ErrInterrupted},
		// The first transition that syncs, running->stored, is written and
		// its fsync fails: the record is on disk and recovery observes
		// Stored.
		{"fsync-fail", func(f *wal.Faults) { f.Set(wal.SiteSync, wal.FailNth(2, errors.New("fsync: input/output error"))) }, StateStored, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			faults := wal.NewFaults()
			tc.set(faults)
			srv1, err := New(Config{Workers: 1, Memory: 16, DataDir: dir, Faults: faults})
			if err != nil {
				t.Fatal(err)
			}
			srv1.Start()
			g := newGroup(t, "fault-"+tc.name, "alg5", 95, 96, 5, 5)
			j, err := srv1.Register(g.contract)
			if err != nil {
				t.Fatal(err)
			}
			driveToDelivered(t, srv1, g, j)

			srv2, err := New(Config{Workers: 1, Memory: 16, DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			j2, err := srv2.Registry().Lookup(g.contract.ID, "")
			if err != nil {
				t.Fatal(err)
			}
			if j2.State() != tc.wantState {
				t.Fatalf("recovered state = %s (err %v), want %s", j2.State(), j2.Err(), tc.wantState)
			}
			switch {
			case tc.wantErr != nil:
				if !errors.Is(j2.Err(), tc.wantErr) {
					t.Fatalf("recovered err = %v, want %v", j2.Err(), tc.wantErr)
				}
			case tc.wantState == StateStored:
				if o := <-g.pipeRecipient(t, srv2); o.err != nil {
					t.Fatalf("stored-job re-fetch refused: %v", o.err)
				} else {
					assertSameRows(t, o.result, g.wantJoin(), tc.name)
				}
				waitDone(t, j2)
			default:
				srv2.Start()
				driveToDelivered(t, srv2, g, j2)
			}
		})
	}
}

// TestRegistrationNotDurableRejected: when the WAL cannot record an
// admission, the tenant is refused up front and the registry stays clean —
// no job exists that a crash would silently lose.
func TestRegistrationNotDurableRejected(t *testing.T) {
	dir := t.TempDir()
	faults := wal.NewFaults()
	faults.Set(SiteRegister, wal.Always(wal.ErrCrashed))
	srv, err := New(Config{Workers: 1, Memory: 16, DataDir: dir, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	g := newGroup(t, "undurable", "alg5", 97, 98, 4, 4)
	if _, err := srv.Register(g.contract); !errors.Is(err, wal.ErrCrashed) {
		t.Fatalf("registration error = %v, want wrapped wal.ErrCrashed", err)
	}
	if _, err := srv.Registry().Lookup(g.contract.ID, ""); err == nil {
		t.Fatal("unlogged registration left in registry")
	}
	if got := srv.MetricsSnapshot().Submitted; got != 0 {
		t.Fatalf("submitted = %d after refused registration", got)
	}
	srv2, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if n := srv2.Registry().Len(); n != 0 {
		t.Fatalf("recovered %d jobs from refused registration", n)
	}
}

// bulkContract builds a minimal signed two-provider contract for WAL
// volume tests.
func bulkContract(tb testing.TB, id string) *service.Contract {
	tb.Helper()
	newKeys := func() ([]byte, []byte) {
		pub, priv, err := service.NewIdentity()
		if err != nil {
			tb.Fatal(err)
		}
		return pub, priv
	}
	pubA, privA := newKeys()
	pubB, privB := newKeys()
	pubR, _ := newKeys()
	c := &service.Contract{
		ID: id,
		Parties: []service.Party{
			{Name: id + "-provA", Identity: pubA, Role: service.RoleProvider},
			{Name: id + "-provB", Identity: pubB, Role: service.RoleProvider},
			{Name: id + "-recip", Identity: pubR, Role: service.RoleRecipient},
		},
		Predicate: service.PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"},
		Algorithm: "alg5",
		Epsilon:   1e-9,
	}
	c.Sign(0, privA)
	c.Sign(1, privB)
	return c
}

// buildBulkWAL writes an n-job WAL: every job registered, driven through
// Pending→Uploading→Running, and ended in a terminal state (even jobs
// delivered, odd jobs failed).
func buildBulkWAL(tb testing.TB, dir string, n int) {
	tb.Helper()
	jn := seedJournal(tb, dir)
	for i := 0; i < n; i++ {
		c := bulkContract(tb, fmt.Sprintf("bulk-%04d", i))
		seedRegistered(tb, jn, c)
		transitions := []struct {
			from, to State
			cause    string
		}{
			{StatePending, StateUploading, ""},
			{StateUploading, StateRunning, ""},
		}
		if i%2 == 0 {
			transitions = append(transitions, struct {
				from, to State
				cause    string
			}{StateRunning, StateDelivered, ""})
		} else {
			transitions = append(transitions, struct {
				from, to State
				cause    string
			}{StateRunning, StateFailed, "context deadline exceeded"})
		}
		for _, tr := range transitions {
			seedTransition(tb, jn, c.ID, tr.from, tr.to, tr.cause)
		}
	}
	if err := jn.Close(); err != nil {
		tb.Fatal(err)
	}
}

// seedJournal opens a fresh dir's journal for a test to hand-write a log
// with seedRegistered and seedTransition — the records Register and
// Job.transition append, without running a server.
func seedJournal(tb testing.TB, dir string) *journal {
	tb.Helper()
	jn, recs, err := openJournal(dir, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if len(recs) != 0 {
		tb.Fatalf("fresh dir replayed %d records", len(recs))
	}
	return jn
}

func seedRegistered(tb testing.TB, jn *journal, c *service.Contract) {
	tb.Helper()
	rec := wal.Record{Type: wal.TypeRegistered, Contract: service.MarshalContract(c)}
	if err := jn.append(SiteRegister, rec, true); err != nil {
		tb.Fatal(err)
	}
}

func seedTransition(tb testing.TB, jn *journal, jobID string, from, to State, cause string) {
	tb.Helper()
	rec := wal.Record{Type: wal.TypeTransition, ContractID: jobID, From: int32(from), To: int32(to), Cause: cause}
	if err := jn.append(TransitionSite(from, to), rec, transitions[to].synced); err != nil {
		tb.Fatal(err)
	}
}

func checkBulkRecovery(tb testing.TB, srv *Server, n int) {
	tb.Helper()
	if got := srv.Registry().Len(); got != n {
		tb.Fatalf("recovered %d jobs, want %d", got, n)
	}
	snap := srv.MetricsSnapshot()
	if snap.Submitted != uint64(n) {
		tb.Fatalf("submitted = %d, want %d", snap.Submitted, n)
	}
	if d, f := snap.Jobs["delivered"], snap.Jobs["failed"]; d != int64((n+1)/2) || f != int64(n/2) {
		tb.Fatalf("delivered/failed = %d/%d, want %d/%d", d, f, (n+1)/2, n/2)
	}
}

// TestRecover1kJobsUnder1s pins the recovery-latency acceptance bound: a
// 1000-job WAL (4 records per job, signature re-verification included)
// rebuilds in under a second.
func TestRecover1kJobsUnder1s(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-job WAL build is not short")
	}
	dir := t.TempDir()
	const n = 1000
	buildBulkWAL(t, dir, n)
	start := time.Now()
	srv, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	checkBulkRecovery(t, srv, n)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Logf("recovery of %d-job WAL took %s (bound not enforced under -race)", n, elapsed)
	} else if elapsed > time.Second {
		t.Fatalf("recovery of %d-job WAL took %s, want < 1s", n, elapsed)
	}
}

// BenchmarkRecover1kJobs measures New() on a 1000-job WAL — replay,
// contract decode + re-verification, and job-table rebuild.
func BenchmarkRecover1kJobs(b *testing.B) {
	dir := b.TempDir()
	const n = 1000
	buildBulkWAL(b, dir, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := New(Config{DataDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		checkBulkRecovery(b, srv, n)
		if err := srv.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// TestOldFormatLogRefused opens a data directory whose log an earlier
// build wrote, in the format before the magic: one record of each of the
// eight types. Recovery refuses it with wal.ErrFormat instead of reading
// it as a torn tail and truncating every job away, and leaves it byte for
// byte as it was.
func TestOldFormatLogRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, wal.FileName)
	if err := os.WriteFile(path, walBytesUnmagicked, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Recover(dir); !errors.Is(err, wal.ErrFormat) {
		t.Fatalf("wal.Recover = %v, want wal.ErrFormat", err)
	}
	if _, err := New(Config{Workers: 1, Memory: 16, DataDir: dir}); !errors.Is(err, wal.ErrFormat) {
		t.Fatalf("New = %v, want wal.ErrFormat", err)
	}
	if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, walBytesUnmagicked) {
		t.Fatalf("the refused log changed (%v)", err)
	}
}

// walBytesUnmagicked is a log as builds before the magic wrote it: each
// record a u32 length, a CRC-32 (IEEE) and a type byte and body.
var walBytesUnmagicked = []byte{
	0x00, 0x00, 0x00, 0x11, 0x92, 0xa1, 0x3c, 0x8f, 0x01, 0x63, 0x6f, 0x6e, 0x74, 0x72, 0x61, 0x63,
	0x74, 0x2d, 0x62, 0x79, 0x74, 0x65, 0x73, 0x00, 0xff, 0x00, 0x00, 0x00, 0x22, 0x44, 0x1c, 0x29,
	0x89, 0x02, 0x00, 0x02, 0x63, 0x31, 0x02, 0x04, 0x00, 0x19, 0x63, 0x6f, 0x6e, 0x74, 0x65, 0x78,
	0x74, 0x20, 0x64, 0x65, 0x61, 0x64, 0x6c, 0x69, 0x6e, 0x65, 0x20, 0x65, 0x78, 0x63, 0x65, 0x65,
	0x64, 0x65, 0x64, 0x00, 0x00, 0x00, 0x0d, 0xfd, 0xd0, 0xad, 0x71, 0x03, 0x00, 0x02, 0x63, 0x31,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0xa6, 0x00, 0x00, 0x00, 0x0a, 0x93, 0x26, 0xb3, 0xe2,
	0x04, 0x00, 0x02, 0x63, 0x31, 0x00, 0x03, 0x74, 0x74, 0x6c, 0x00, 0x00, 0x00, 0x0b, 0xeb, 0x92,
	0x6b, 0xfd, 0x05, 0x00, 0x02, 0x63, 0x31, 0x00, 0x04, 0x63, 0x31, 0x23, 0x32, 0x00, 0x00, 0x00,
	0x16, 0xc1, 0xf0, 0xce, 0xd1, 0x06, 0x00, 0x0b, 0x63, 0x31, 0x7c, 0x41, 0x7c, 0x38, 0x7c, 0x61,
	0x62, 0x31, 0x32, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x13, 0x55,
	0xc3, 0xb7, 0x22, 0x07, 0x00, 0x0b, 0x63, 0x31, 0x7c, 0x41, 0x7c, 0x38, 0x7c, 0x61, 0x62, 0x31,
	0x32, 0x00, 0x03, 0x63, 0x61, 0x70, 0x00, 0x00, 0x00, 0x15, 0x0a, 0x0d, 0xc1, 0x65, 0x08, 0x00,
	0x02, 0x63, 0x31, 0x00, 0x00, 0x00, 0x0d, 0xf8, 0x47, 0x58, 0x00, 0x18, 0xda, 0x8d, 0x55, 0x74,
	0x88, 0x00, 0x00,
}

// TestResultMetaSizeIndependentOfValues: a stored result's meta has the
// same length whatever its numbers (the device count, the attributes'
// widths); only its strings' lengths and its attribute count move it.
func TestResultMetaSizeIndependentOfValues(t *testing.T) {
	size := func(v uint64) int {
		n := int(min(v, math.MaxInt64))
		schema := relation.MustSchema(relation.Attr{Name: "k", Type: relation.Int64, Width: n},
			relation.Attr{Name: "s", Type: relation.Bytes, Width: max(1, n)})
		return len(encodeResultMeta(&service.Outcome{Schema: schema, Algorithm: "alg5", Devices: n}))
	}
	for _, v := range []uint64{1, 255, 1 << 31, math.MaxUint64} {
		if got, want := size(v), size(0); got != want {
			t.Errorf("with numbers %d the meta is %d bytes, with zeros %d", v, got, want)
		}
	}
}

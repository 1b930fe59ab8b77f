package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ppj/internal/server/resultstore"
	"ppj/internal/server/wal"
	"ppj/internal/service"
)

// untimed zeroes a snapshot's wall-clock fields. What is left must be a
// function of public sizes alone: the metrics reader is the host H.
func untimed(s Snapshot) Snapshot {
	algs := make(map[string]AlgSnapshot, len(s.Algorithms))
	for alg, a := range s.Algorithms {
		a.AvgMillis, a.MinMillis, a.MaxMillis = 0, 0, 0
		algs[alg] = a
	}
	s.Algorithms = algs
	return s
}

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestTransitionTable drives Job.transition over every (from, to) pair on a
// journaled server. A pair absent from the table is refused and leaves the
// gauges, the WAL and both channels untouched; a pair present fires exactly
// its own TransitionSite once, appends exactly that record, fsyncs it
// exactly when the target row is synced, moves one gauge unit, and closes
// settled/done exactly as the target row says — terminal rows close done
// once, and arriving again is harmless.
func TestTransitionTable(t *testing.T) {
	// Only Uploading and Running are written without a sync of their own:
	// recovery fails a job found in either, and a lost Uploading record
	// leaves a job Pending, which resumes.
	wantSynced := [numStates]bool{
		StatePending: true, StateUploading: false, StateRunning: false,
		StateStored: true, StateDelivered: true, StateFailed: true,
	}
	for s := StatePending; s < numStates; s++ {
		if transitions[s].synced != wantSynced[s] {
			t.Errorf("%s: synced = %v, want %v", s, transitions[s].synced, wantSynced[s])
		}
	}
	dir := t.TempDir()
	fired := make(map[string]int) // transition runs on this goroutine only
	syncs := 0
	faults := wal.NewFaults()
	for from := StatePending; from < numStates; from++ {
		for to := StatePending; to < numStates; to++ {
			site := TransitionSite(from, to)
			faults.Set(site, func() error { fired[site]++; return nil })
		}
	}
	faults.Set(wal.SiteSync, func() error { syncs++; return nil })
	srv, err := New(Config{DataDir: dir, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	walSize := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, wal.FileName))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	c := bulkContract(t, "table")
	seq := 0
	for from := StatePending; from < numStates; from++ {
		for to := StatePending; to < numStates; to++ {
			// A job admitted the way recovery admits one: directly in its
			// state, with that state's effects applied.
			seq++
			id := fmt.Sprintf("table#%d", seq)
			j, err := srv.newJob(c, id, seq, from)
			if err == nil {
				err = srv.admit(j, "", nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			j.arrive(from)

			m := move{to: to}
			if to == StateFailed {
				m.err = errors.New("table cause")
			}
			if to == StateStored {
				m.out = &service.Outcome{Algorithm: c.Algorithm}
			}
			legal := transitions[to].from.has(from)
			before, size := srv.MetricsSnapshot(), walSize()
			settled, done := isClosed(j.Settled()), isClosed(j.Done())
			for site := range fired {
				delete(fired, site)
			}
			syncs = 0

			if got := j.transition(m); got != legal {
				t.Fatalf("%s -> %s: transition = %v, table says %v", from, to, got, legal)
			}
			after := srv.MetricsSnapshot()
			if !legal {
				if len(fired) != 0 || syncs != 0 || walSize() != size || !reflect.DeepEqual(before, after) ||
					j.State() != from || isClosed(j.Settled()) != settled || isClosed(j.Done()) != done {
					t.Fatalf("%s -> %s: refused move left a trace (fired %v, wal %d -> %d)", from, to, fired, size, walSize())
				}
				continue
			}
			site := TransitionSite(from, to)
			if len(fired) != 1 || fired[site] != 1 {
				t.Fatalf("%s -> %s: fired %v, want %s exactly once", from, to, fired, site)
			}
			if j.State() != to {
				t.Fatalf("%s -> %s: state is %s", from, to, j.State())
			}
			if d := after.Jobs[from.String()] - before.Jobs[from.String()]; d != -1 {
				t.Fatalf("%s -> %s: gauge %s moved by %d", from, to, from, d)
			}
			if d := after.Jobs[to.String()] - before.Jobs[to.String()]; d != 1 {
				t.Fatalf("%s -> %s: gauge %s moved by %d", from, to, to, d)
			}
			recs, err := wal.Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := wal.Record{Type: wal.TypeTransition, ContractID: id, From: int32(from), To: int32(to)}
			if m.err != nil {
				want.Cause = m.err.Error()
			}
			if last := recs[len(recs)-1]; !reflect.DeepEqual(last, want) {
				t.Fatalf("%s -> %s: journaled %+v, want %+v", from, to, last, want)
			}
			row := transitions[to]
			if want := map[bool]int{true: 1}[row.synced]; syncs != want {
				t.Fatalf("%s -> %s: %d fsyncs, want %d (synced = %v)", from, to, syncs, want, row.synced)
			}
			if isClosed(j.Settled()) != row.settles || isClosed(j.Done()) != row.done {
				t.Fatalf("%s -> %s: settled/done closed = %v/%v, row says %v/%v",
					from, to, isClosed(j.Settled()), isClosed(j.Done()), row.settles, row.done)
			}
			if row.settles && j.ctx.Err() == nil {
				t.Fatalf("%s -> %s: settled job's context still live", from, to)
			}
			j.arrive(to) // a second close of done would panic
		}
	}
}

// TestRunClockExcludesJournal pins what algorithms.<alg>.avg_ms measures:
// the time RunContract took, not the journal appends around it. With a
// device that takes 50 ms per fsync under every append, a tiny alg5 join
// must still report well under 50 ms.
func TestRunClockExcludesJournal(t *testing.T) {
	faults := wal.NewFaults()
	faults.Set(wal.SiteSync, func() error { time.Sleep(50 * time.Millisecond); return nil })
	srv, err := New(Config{Workers: 1, Memory: 16, DataDir: t.TempDir(), Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(context.Background())
	g := newGroup(t, "run-clock", "alg5", 31, 32, 4, 4)
	j, err := srv.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}
	driveToDelivered(t, srv, g, j)
	a := srv.MetricsSnapshot().Algorithms["alg5"]
	if a.Completed != 1 || a.AvgMillis >= 50 {
		t.Fatalf("alg5 summary %+v: avg_ms includes journal time", a)
	}
}

// TestFailWhilePersistingEvictsResult cancels a job at the instant its
// result's manifest record is being appended — after the segment write,
// before Running → Stored. The failure verdict stands, so the stored
// result can serve no one: it must leave the store in the live process
// (not wait for the next recovery), and restarts must agree.
func TestFailWhilePersistingEvictsResult(t *testing.T) {
	dir := t.TempDir()
	var job atomic.Pointer[Job]
	faults := wal.NewFaults()
	faults.Set(SiteResultStored, func() error {
		j := job.Load()
		j.Cancel()
		<-j.Done()
		return nil
	})
	srv, err := New(Config{Workers: 1, Memory: 16, DataDir: dir, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	g := newGroup(t, "fail-mid-persist", "alg5", 41, 42, 5, 5)
	j, err := srv.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}
	job.Store(j)
	if err := g.pipeProvider(t, srv, g.provA, g.relA); err != nil {
		t.Fatal(err)
	}
	if err := g.pipeProvider(t, srv, g.provB, g.relB); err != nil {
		t.Fatal(err)
	}
	if o := <-g.pipeRecipient(t, srv); o.err == nil {
		t.Fatal("recipient of a cancelled job got a result")
	}
	if j.State() != StateFailed || !errors.Is(j.Err(), context.Canceled) {
		t.Fatalf("job ended %s (%v), want failed (context canceled)", j.State(), j.Err())
	}
	// Shutdown returns once the worker is out of finish.
	table := renderJobTable(srv)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := srv.MetricsSnapshot()
	if snap.ResultStoreBytes != 0 || snap.ResultStoreEvictions != 1 {
		t.Fatalf("result_store_bytes = %d, evictions = %d; want 0 and 1", snap.ResultStoreBytes, snap.ResultStoreEvictions)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "results", "seg-*.res")); len(segs) != 0 {
		t.Fatalf("segments left under results/: %v", segs)
	}
	if cause, ok := srv.results.EvictedCause(j.ID()); !ok || cause != resultstore.CauseTorn {
		t.Fatalf("eviction verdict = %q (%v), want torn", cause, ok)
	}
	for restart := 1; restart <= 2; restart++ {
		again, err := New(Config{Workers: 1, Memory: 16, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderJobTable(again); got != table {
			t.Fatalf("restart %d job table:\n%s\nlive table:\n%s", restart, got, table)
		}
		if s := again.MetricsSnapshot(); s.ResultStoreBytes != 0 || s.ResultStoreRecoveryEvictions != 0 {
			t.Fatalf("restart %d: result store %d bytes, %d recovery evictions; want a clean replay",
				restart, s.ResultStoreBytes, s.ResultStoreRecoveryEvictions)
		}
		if err := again.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ppj/internal/frame"
	"ppj/internal/relation"
	"ppj/internal/server/wal"
	"ppj/internal/service"
)

// walFrame is one record of a log file and the offset just past it.
type walFrame struct {
	rec wal.Record
	end int
}

// walMagic opens every log.
const walMagic = "PPJWAL1\n"

// walFrames splits a log file at its record boundaries: after the magic, a
// frame is a type byte, a u32 body length, the body and a u32 checksum. It
// stops at the first frame that does not replay, as wal.Recover does.
func walFrames(tb testing.TB, raw []byte) []walFrame {
	tb.Helper()
	if !bytes.HasPrefix(raw, []byte(walMagic)) {
		tb.Fatalf("log starts %q, not with the magic", raw[:min(len(raw), len(walMagic))])
	}
	var frames []walFrame
	for off := len(walMagic); off+frame.HeaderLen <= len(raw); {
		end := off + frame.HeaderLen + int(binary.BigEndian.Uint32(raw[off+1:])) + frame.CRCLen
		if end > len(raw) {
			break
		}
		recs, n := wal.Replay(raw[off:end])
		if len(recs) != 1 || n != end-off {
			break
		}
		frames = append(frames, walFrame{recs[0], end})
		off = end
	}
	return frames
}

// recordJob names the job a record is about: the contract a registration
// carries, else the record's ID.
func recordJob(tb testing.TB, rec wal.Record) string {
	tb.Helper()
	if rec.Type != wal.TypeRegistered {
		return rec.ContractID
	}
	c, err := service.UnmarshalContract(rec.Contract)
	if err != nil {
		tb.Fatal(err)
	}
	return c.ID
}

// dirFiles reads every file under dir, keyed by its path relative to dir,
// the data directory's lock file aside.
func dirFiles(tb testing.TB, dir string) map[string][]byte {
	tb.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() == "wal.lock" {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		files[rel] = raw
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return files
}

// TestRecoveryFromEveryJournalPrefix crashes a data directory at every
// point a power cut can leave its log. The log is one append-only file,
// and recovery truncates at the first invalid frame, so every such state
// is a prefix of the final log at a record boundary, or that prefix plus a
// torn next frame, or a prefix of the magic (a torn create, which
// recovers as an empty log). Three jobs are driven first — one to Delivered, one to
// Failed, one left Stored — and every record the server acknowledges
// (registration, settlement, completion) must lie inside the bytes fsynced
// by then. Then each prefix, with every result segment the run wrote,
// recovers: New succeeds and a second New changes no byte of the log or
// the segments; every job is in the state its last record in the prefix
// names, Uploading and Running failed as interrupted; a Stored or
// Delivered job serves the reference join; no segment outlives its job;
// and the gauges sum to the jobs submitted.
func TestRecoveryFromEveryJournalPrefix(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, wal.FileName)
	var (
		mu     sync.Mutex
		synced int64 // log bytes the last fsync covered
	)
	faults := wal.NewFaults()
	faults.Set(wal.SiteSync, func() error {
		fi, err := os.Stat(walPath)
		if err != nil {
			return err
		}
		mu.Lock()
		synced = fi.Size()
		mu.Unlock()
		return nil
	})
	// acked asserts that the record of the event just acknowledged — the
	// first whose job is id and that matches — is on disk.
	acked := func(event, id string, match func(wal.Record) bool) {
		t.Helper()
		raw, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		durable := synced
		mu.Unlock()
		for _, f := range walFrames(t, raw) {
			if recordJob(t, f.rec) == id && match(f.rec) {
				if int64(f.end) > durable {
					t.Fatalf("%s of %s acknowledged with its record ending at byte %d, past the %d fsynced", event, id, f.end, durable)
				}
				return
			}
		}
		t.Fatalf("%s of %s acknowledged with no record of it in the log", event, id)
	}
	isType := func(typ wal.Type) func(wal.Record) bool {
		return func(r wal.Record) bool { return r.Type == typ }
	}
	movedTo := func(s State) func(wal.Record) bool {
		return func(r wal.Record) bool { return r.Type == wal.TypeTransition && r.To == int32(s) }
	}

	srv, err := New(Config{Workers: 1, Memory: 16, DataDir: dir, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	register := func(g *group) *Job {
		t.Helper()
		j, err := srv.Register(g.contract)
		if err != nil {
			t.Fatal(err)
		}
		acked("registration", j.ID(), isType(wal.TypeRegistered))
		return j
	}
	settled := func(j *Job, s State) {
		t.Helper()
		<-j.Settled()
		acked("settlement", j.ID(), movedTo(s))
	}
	done := func(j *Job, s State) {
		t.Helper()
		<-j.Done()
		acked("completion", j.ID(), movedTo(s))
	}

	delivered := newGroup(t, "prefix-delivered", "alg5", 41, 42, 5, 5)
	j := register(delivered)
	driveToDelivered(t, srv, delivered, j)
	settled(j, StateStored)
	done(j, StateDelivered)

	failed := newGroup(t, "prefix-failed", "alg5", 43, 44, 5, 5)
	j = register(failed)
	if err := failed.pipeProvider(t, srv, failed.provA, failed.relA); err != nil {
		t.Fatal(err)
	}
	j.Cancel()
	settled(j, StateFailed)
	done(j, StateFailed)

	// 66 result rows are two chunks: a fetch paused after the first leaves
	// the job Stored.
	relA, relB := genJoinSized(45, 8, 70, 66)
	stored := newGroupRels(t, "prefix-stored", "alg5", relA, relB)
	j = register(stored)
	for _, up := range []struct {
		p   testParty
		rel *relation.Relation
	}{{stored.provA, stored.relA}, {stored.provB, stored.relB}} {
		if err := stored.pipeProvider(t, srv, up.p, up.rel); err != nil {
			t.Fatal(err)
		}
	}
	if err := stored.fetchLeg(srv, &service.ResultFetch{}, 1); !errors.Is(err, service.ErrFetchPaused) {
		t.Fatalf("first leg of the stored job's fetch: %v, want a pause", err)
	}
	settled(j, StateStored)
	if s := j.State(); s != StateStored {
		t.Fatalf("paused job is %s, want stored", s)
	}
	// The server is abandoned here, as a crash would leave it.

	groups := map[string]*group{}
	for _, g := range []*group{delivered, failed, stored} {
		groups[g.contract.ID] = g
	}
	final := dirFiles(t, dir)
	raw := final[wal.FileName]
	frames := walFrames(t, raw)
	if len(frames) == 0 || frames[len(frames)-1].end != len(raw) {
		t.Fatalf("final log of %d bytes splits into %d frames", len(raw), len(frames))
	}
	// A subtest is named for the records its log holds, not for its byte
	// count, which moves whenever a record's encoding does; only a torn
	// create is named for its bytes, a prefix of the fixed magic.
	check := func(name string, size, k int) {
		t.Run(name, func(t *testing.T) {
			checkPrefixRecovery(t, final, raw[:size], frames[:k], groups)
		})
	}
	for size := range len(walMagic) {
		check(fmt.Sprintf("0-records-%d-bytes", size), size, 0)
	}
	for k := 0; k <= len(frames); k++ {
		cut := len(walMagic)
		if k > 0 {
			cut = frames[k-1].end
		}
		check(fmt.Sprintf("%d-records", k), cut, k)
		if k < len(frames) {
			check(fmt.Sprintf("%d-records-torn", k), cut+(frames[k].end-cut)/2, k)
		}
	}
}

// checkPrefixRecovery recovers a copy of the data directory whose log is
// the given bytes, holding the records prefix, and checks it.
func checkPrefixRecovery(t *testing.T, final map[string][]byte, log []byte, prefix []walFrame, groups map[string]*group) {
	dir := t.TempDir()
	for rel, raw := range final {
		if rel == wal.FileName {
			raw = log
		}
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// What the prefix says of each job: registered, and its last state.
	want := make(map[string]State)
	causes := make(map[string]string)
	for _, f := range prefix {
		switch f.rec.Type {
		case wal.TypeRegistered:
			want[recordJob(t, f.rec)] = StatePending
		case wal.TypeTransition:
			want[f.rec.ContractID], causes[f.rec.ContractID] = State(f.rec.To), f.rec.Cause
		}
	}

	if _, err := New(Config{Workers: 1, Memory: 16, DataDir: dir}); err != nil {
		t.Fatalf("first recovery: %v", err)
	}
	first := dirFiles(t, dir)
	srv, err := New(Config{Workers: 1, Memory: 16, DataDir: dir})
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	again := dirFiles(t, dir)
	if len(again) != len(first) {
		t.Fatalf("second recovery changed the files: %d, then %d", len(first), len(again))
	}
	for rel, raw := range first {
		if !bytes.Equal(again[rel], raw) {
			t.Fatalf("second recovery changed %s", rel)
		}
	}

	snap := srv.MetricsSnapshot()
	var gauges int64
	for _, n := range snap.Jobs {
		gauges += n
	}
	if snap.Submitted != uint64(len(want)) || gauges != int64(len(want)) {
		t.Fatalf("submitted %d, gauges sum to %d; the prefix registers %d", snap.Submitted, gauges, len(want))
	}
	serving := make(map[string]bool)
	for id, g := range groups {
		j, err := srv.Registry().Lookup(id, "")
		state, registered := want[id]
		if !registered {
			if err == nil {
				t.Fatalf("%s recovered, but the prefix never registers it", id)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		interrupted := state == StateUploading || state == StateRunning
		if interrupted {
			state = StateFailed
		}
		if j.State() != state {
			t.Fatalf("%s recovered %s (err %v), the prefix says %s", id, j.State(), j.Err(), state)
		}
		switch {
		case interrupted && !errors.Is(j.Err(), ErrInterrupted):
			t.Fatalf("%s recovered failed with %v, want %v", id, j.Err(), ErrInterrupted)
		case !interrupted && state == StateFailed && j.Err().Error() != causes[id]:
			t.Fatalf("%s recovered failed with %v, want its recorded cause %q", id, j.Err(), causes[id])
		}
		if state == StateStored || state == StateDelivered {
			serving[id] = true
			if o := <-g.pipeRecipient(t, srv); o.err != nil {
				t.Fatalf("%s refused a fetch: %v", id, o.err)
			} else {
				assertSameRows(t, o.result, g.wantJoin(), id)
			}
		}
	}
	for _, id := range srv.results.IDs() {
		if !serving[id] {
			t.Fatalf("%s's result survived recovery, but the job is %v", id, want[id])
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "results", "*.res"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != len(serving) {
		t.Fatalf("%d result segments on disk after recovery, %d jobs serving", len(segs), len(serving))
	}
}

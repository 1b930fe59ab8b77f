package wal

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ppj/internal/frame"
)

func sampleRecords() []Record {
	return []Record{
		{Type: TypeRegistered, Contract: []byte("contract-bytes-for-alpha")},
		{Type: TypeTransition, ContractID: "alpha", From: 0, To: 1},
		{Type: TypeTransition, ContractID: "alpha", From: 1, To: 4, Cause: "context canceled"},
		{Type: TypeRegistered, Contract: bytes.Repeat([]byte{0xab}, 300)},
		{Type: TypeTransition, ContractID: "", From: 0, To: 0, Cause: ""},
		{Type: TypeScheduled, ContractID: "alpha", Every: 5_000_000_000, Due: 1_000_000_000},
	}
}

func appendAll(t *testing.T, dir string, recs []Record) {
	t.Helper()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func recordsEqual(a, b Record) bool {
	return a.Type == b.Type && bytes.Equal(a.Contract, b.Contract) &&
		a.ContractID == b.ContractID && a.From == b.From && a.To == b.To && a.Cause == b.Cause &&
		a.Every == b.Every && a.Due == b.Due
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleRecords()
	appendAll(t, dir, want)
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !recordsEqual(got[i], want[i]) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRecoverMissingDir(t *testing.T) {
	recs, err := Recover(filepath.Join(t.TempDir(), "never-created"))
	if err != nil || recs != nil {
		t.Fatalf("Recover on missing dir = %v, %v", recs, err)
	}
}

// TestRecoverTruncatesTornTail appends garbage and partial frames after
// valid records and checks recovery keeps the valid prefix, truncates the
// file, and appends cleanly afterwards.
func TestRecoverTruncatesTornTail(t *testing.T) {
	full := sampleRecords()
	frames := make([][]byte, len(full))
	for i, r := range full {
		f, err := r.encodeFrame()
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	tails := map[string][]byte{
		"half-frame":    frames[2][:len(frames[2])/2],
		"header-only":   frames[2][:frame.HeaderLen],
		"flipped-crc":   append(bytes.Clone(frames[2][:len(frames[2])-1]), frames[2][len(frames[2])-1]^0xff),
		"garbage":       {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01},
		"huge-length":   {byte(TypeRegistered), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3},
		"corrupt-runon": append(append([]byte{}, frames[2]...), frames[3]...),
	}
	// corrupt-runon: flip a body byte of the first tail frame so it and
	// everything after is discarded even though a valid frame follows.
	tails["corrupt-runon"][frame.HeaderLen] ^= 0xff

	for name, tail := range tails {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			appendAll(t, dir, full[:2])
			path := filepath.Join(dir, FileName)
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			got, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 2 || !recordsEqual(got[0], full[0]) || !recordsEqual(got[1], full[1]) {
				t.Fatalf("recovered %+v, want first two sample records", got)
			}
			wantSize := int64(len(magic) + len(frames[0]) + len(frames[1]))
			if fi, err := os.Stat(path); err != nil || fi.Size() != wantSize {
				t.Fatalf("post-recovery size = %v (%v), want %d", fi.Size(), err, wantSize)
			}
			// The truncated log accepts new records where the tail was.
			appendAll(t, dir, full[2:3])
			got, err = Recover(dir)
			if err != nil || len(got) != 3 || !recordsEqual(got[2], full[2]) {
				t.Fatalf("append after truncation: %+v, %v", got, err)
			}
		})
	}
}

func TestAppendFaultShortWrite(t *testing.T) {
	dir := t.TempDir()
	faults := NewFaults()
	faults.Set(SiteAppend, FailNth(2, ErrShortWrite))
	l, err := Open(dir, faults)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := l.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recs[1]); !errors.Is(err, ErrShortWrite) {
		t.Fatalf("injected append error = %v, want ErrShortWrite", err)
	}
	// The log is sealed: later appends are refused without touching disk.
	if err := l.Append(recs[2]); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-fault append error = %v, want ErrCrashed", err)
	}
	l.Close()

	got, err := Recover(dir)
	if err != nil || len(got) != 1 || !recordsEqual(got[0], recs[0]) {
		t.Fatalf("recovery after short write = %+v, %v; want only the first record", got, err)
	}
}

func TestAppendFaultSyncFailure(t *testing.T) {
	dir := t.TempDir()
	faults := NewFaults()
	injected := errors.New("fsync: input/output error")
	faults.Set(SiteSync, FailNth(2, injected))
	l, err := Open(dir, faults)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := l.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recs[1]); !errors.Is(err, injected) {
		t.Fatalf("injected sync error = %v", err)
	}
	if err := l.Append(recs[2]); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-fault append error = %v, want ErrCrashed", err)
	}
	l.Close()
	// The frame was fully written before the failed sync; recovery may
	// legitimately observe it.
	got, err := Recover(dir)
	if err != nil || len(got) != 2 {
		t.Fatalf("recovery after sync failure = %d records (%v), want 2", len(got), err)
	}
}

// TestWriteSyncedByNextAppendAndClose: Write writes a record without an
// fsync, and the next fsync covers it: the next Append's, or Close's when
// the tail is still unsynced. Each flush fires SiteSync once; an Append
// with nothing written before it fires it once for itself, and a Close
// with nothing pending, or on a sealed log, fires nothing.
func TestWriteSyncedByNextAppendAndClose(t *testing.T) {
	recs := sampleRecords()
	var appends, syncs int
	faults := NewFaults()
	faults.Set(SiteAppend, func() error { appends++; return nil })
	faults.Set(SiteSync, func() error { syncs++; return nil })
	count := func(label string, wantAppends, wantSyncs int) {
		t.Helper()
		if appends != wantAppends || syncs != wantSyncs {
			t.Fatalf("%s: %d appends, %d syncs; want %d, %d", label, appends, syncs, wantAppends, wantSyncs)
		}
	}

	dir := t.TempDir()
	l, err := Open(dir, faults)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[:2] {
		if err := l.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	count("two writes", 2, 0)
	if err := l.Append(recs[2]); err != nil {
		t.Fatal(err)
	}
	count("an append after them", 3, 1)
	if err := l.Append(recs[3]); err != nil {
		t.Fatal(err)
	}
	count("an append with nothing pending", 4, 2)
	if err := l.Write(recs[4]); err != nil {
		t.Fatal(err)
	}
	count("a write", 5, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	count("close over an unsynced tail", 5, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	count("a second close", 5, 3)
	got, err := Recover(dir)
	if err != nil || len(got) != 5 {
		t.Fatalf("recovered %d records (%v), want 5", len(got), err)
	}
	for i := range got {
		if !recordsEqual(got[i], recs[i]) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}

	appends, syncs = 0, 0
	l, err = Open(t.TempDir(), faults)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	count("close with nothing pending", 1, 1)

	appends, syncs = 0, 0
	l, err = Open(t.TempDir(), faults)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Write(recs[0]); err != nil {
		t.Fatal(err)
	}
	l.Crash()
	if err := l.Write(recs[1]); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after Crash = %v, want ErrCrashed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	count("close of a sealed log", 1, 0)
}

func TestCrashSealsLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := l.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	l.Crash()
	if err := l.Append(recs[1]); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append after Crash = %v, want ErrCrashed", err)
	}
	got, err := Recover(dir)
	if err != nil || len(got) != 1 {
		t.Fatalf("recovery after Crash = %d records (%v), want 1", len(got), err)
	}
}

func TestEncodeRejectsMalformedRecords(t *testing.T) {
	bad := []Record{
		{Type: TypeRegistered},           // no contract bytes
		{Type: Type(9)},                  // unknown type
		{Type: TypeTransition, From: -1}, // state out of range
		{Type: TypeTransition, To: 300},  // state out of range
		{Type: TypeRegistered, Contract: make([]byte, MaxPayload+1)}, // over cap
		{Type: TypeScheduled, ContractID: "c", Every: 0, Due: 1},     // no interval
		{Type: TypeScheduled, ContractID: "c", Every: 1, Due: -1},    // negative due
	}
	for i, r := range bad {
		if _, err := r.encodeFrame(); err == nil {
			t.Fatalf("record %d encoded despite being malformed", i)
		}
	}
}

func TestFaultsRegistry(t *testing.T) {
	var nilFaults *Faults
	if err := nilFaults.Fire("anything"); err != nil {
		t.Fatalf("nil Faults fired %v", err)
	}
	f := NewFaults()
	if err := f.Fire("unset"); err != nil {
		t.Fatalf("unset site fired %v", err)
	}
	boom := errors.New("boom")
	f.Set("site", Always(boom))
	if err := f.Fire("site"); !errors.Is(err, boom) {
		t.Fatalf("Always hook fired %v", err)
	}
	f.Set("site", nil)
	if err := f.Fire("site"); err != nil {
		t.Fatalf("cleared site fired %v", err)
	}
	nth := FailNth(3, boom)
	f.Set("site", nth)
	for i := 1; i <= 4; i++ {
		err := f.Fire("site")
		if (i == 3) != (err != nil) {
			t.Fatalf("FailNth call %d fired %v", i, err)
		}
	}
}

// TestRecordSizeIndependentOfValues: a record's frame length is a
// function of its strings' lengths only, never of its numbers, for every
// record type: each number at 0, 1, 255, 2^31 and its field's largest
// value encodes to the same length.
func TestRecordSizeIndependentOfValues(t *testing.T) {
	recs := func(v uint64) []Record {
		state, size, t64 := int32(min(v, 0xff)), int64(min(v, 1<<62)), int64(min(v, math.MaxInt64))
		return []Record{
			{Type: TypeRegistered, Contract: []byte("contract")},
			{Type: TypeTransition, ContractID: "c1", From: state, To: state, Cause: "cause"},
			{Type: TypeResultStored, ContractID: "c1", Bytes: size},
			{Type: TypeResultEvicted, ContractID: "c1", Cause: "ttl"},
			{Type: TypeResubmitted, ContractID: "c1", JobID: "c1#2"},
			{Type: TypeCacheStored, ContractID: "c1", Bytes: size},
			{Type: TypeCacheEvicted, ContractID: "c1", Cause: "cap"},
			{Type: TypeScheduled, ContractID: "c1", Every: max(1, t64), Due: t64},
		}
	}
	size := func(r Record) int {
		buf, err := r.encodeFrame()
		if err != nil {
			t.Fatal(err)
		}
		return len(buf)
	}
	want := recs(0)
	for _, v := range []uint64{1, 255, 1 << 31, math.MaxUint64} {
		for i, r := range recs(v) {
			if got, w := size(r), size(want[i]); got != w {
				t.Errorf("type %d record with numbers %d is %d bytes, with zeros %d", r.Type, v, got, w)
			}
		}
	}
}

// TestWALBytesStable pins the on-disk format: walBytesGolden is a log
// holding the magic and one record of each of the eight types, byte for
// byte. It must replay to the expected records and re-encode to the same
// bytes, so a change to the format is a change to this test.
func TestWALBytesStable(t *testing.T) {
	want := []Record{
		{Type: TypeRegistered, Contract: []byte("contract-bytes\x00\xff")},
		{Type: TypeTransition, ContractID: "c1", From: 2, To: 4, Cause: "context deadline exceeded"},
		{Type: TypeResultStored, ContractID: "c1", Bytes: 934},
		{Type: TypeResultEvicted, ContractID: "c1", Cause: "ttl"},
		{Type: TypeResubmitted, ContractID: "c1", JobID: "c1#2"},
		{Type: TypeCacheStored, ContractID: "c1|A|8|ab12", Bytes: 1 << 40},
		{Type: TypeCacheEvicted, ContractID: "c1|A|8|ab12", Cause: "cap"},
		{Type: TypeScheduled, ContractID: "c1", Every: 60e9, Due: 1790899200e9},
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, FileName), walBytesGolden, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	reenc := bytes.Clone(magic)
	for i, r := range recs {
		if !reflect.DeepEqual(r, want[i]) {
			t.Errorf("record %d = %+v, want %+v", i, r, want[i])
		}
		buf, err := want[i].encodeFrame()
		if err != nil {
			t.Fatal(err)
		}
		reenc = append(reenc, buf...)
	}
	if !bytes.Equal(reenc, walBytesGolden) {
		t.Fatalf("re-encoding differs from the golden bytes:\n got %x\nwant %x", reenc, walBytesGolden)
	}
}

var walBytesGolden = []byte{
	0x50, 0x50, 0x4a, 0x57, 0x41, 0x4c, 0x31, 0x0a, 0x01, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00,
	0x10, 0x63, 0x6f, 0x6e, 0x74, 0x72, 0x61, 0x63, 0x74, 0x2d, 0x62, 0x79, 0x74, 0x65, 0x73, 0x00,
	0xff, 0x13, 0x3b, 0x12, 0x9d, 0x02, 0x00, 0x00, 0x00, 0x25, 0x00, 0x00, 0x00, 0x02, 0x63, 0x31,
	0x02, 0x04, 0x00, 0x00, 0x00, 0x19, 0x63, 0x6f, 0x6e, 0x74, 0x65, 0x78, 0x74, 0x20, 0x64, 0x65,
	0x61, 0x64, 0x6c, 0x69, 0x6e, 0x65, 0x20, 0x65, 0x78, 0x63, 0x65, 0x65, 0x64, 0x65, 0x64, 0x01,
	0xb8, 0xa4, 0xca, 0x03, 0x00, 0x00, 0x00, 0x0e, 0x00, 0x00, 0x00, 0x02, 0x63, 0x31, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x03, 0xa6, 0x96, 0x05, 0x53, 0xa1, 0x04, 0x00, 0x00, 0x00, 0x0d, 0x00,
	0x00, 0x00, 0x02, 0x63, 0x31, 0x00, 0x00, 0x00, 0x03, 0x74, 0x74, 0x6c, 0x58, 0xcc, 0xb4, 0xd3,
	0x05, 0x00, 0x00, 0x00, 0x0e, 0x00, 0x00, 0x00, 0x02, 0x63, 0x31, 0x00, 0x00, 0x00, 0x04, 0x63,
	0x31, 0x23, 0x32, 0xee, 0x50, 0x82, 0xef, 0x06, 0x00, 0x00, 0x00, 0x17, 0x00, 0x00, 0x00, 0x0b,
	0x63, 0x31, 0x7c, 0x41, 0x7c, 0x38, 0x7c, 0x61, 0x62, 0x31, 0x32, 0x00, 0x00, 0x01, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x6d, 0x6c, 0x3b, 0xba, 0x07, 0x00, 0x00, 0x00, 0x16, 0x00, 0x00, 0x00, 0x0b,
	0x63, 0x31, 0x7c, 0x41, 0x7c, 0x38, 0x7c, 0x61, 0x62, 0x31, 0x32, 0x00, 0x00, 0x00, 0x03, 0x63,
	0x61, 0x70, 0x9b, 0xb0, 0x7b, 0xa0, 0x08, 0x00, 0x00, 0x00, 0x16, 0x00, 0x00, 0x00, 0x02, 0x63,
	0x31, 0x00, 0x00, 0x00, 0x0d, 0xf8, 0x47, 0x58, 0x00, 0x18, 0xda, 0x8d, 0x55, 0x74, 0x88, 0x00,
	0x00, 0x15, 0x95, 0xbe, 0x1c,
}

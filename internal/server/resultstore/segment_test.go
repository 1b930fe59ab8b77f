package resultstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"ppj/internal/frame"
)

// segFrame is one frame of a segment file: its type and a copy of its body.
type segFrame struct {
	typ  byte
	body []byte
}

// segmentFrames splits a segment file into its frames after the magic.
func segmentFrames(t *testing.T, raw []byte) []segFrame {
	t.Helper()
	rest := raw[len(segMagic):]
	var frames []segFrame
	for len(rest) > 0 {
		typ, body, next, err := segCaps.Cut(rest)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, segFrame{typ, slices.Clone(body)})
		rest = next
	}
	return frames
}

// joinFrames reassembles a segment from frames, recomputing each frame's
// length and CRC as a host rewriting the file would.
func joinFrames(frames []segFrame) []byte {
	b := slices.Clone(segMagic)
	for _, f := range frames {
		start := len(b)
		b = frame.FinishChecked(append(frame.Start(b, f.typ), f.body...), start)
	}
	return b
}

// TestSegmentTamperReadsTorn edits a stored segment the ways a host can
// without the key: it copies another result's segment over it, swaps two
// row frames, drops a row and lowers the row count, or edits the header's
// ID. Every frame stays CRC-valid, so only the records' associated data can
// tell. Each read answers *EvictedError (torn) and never serves rows, and a
// re-opened store serves none of them either.
func TestSegmentTamperReadsTorn(t *testing.T) {
	header := func(frames []segFrame) []byte { return frames[0].body }
	for _, c := range []struct {
		name string
		edit func(t *testing.T, dir string, frames []segFrame) []segFrame
	}{
		{"another job's segment copied over", func(t *testing.T, dir string, _ []segFrame) []segFrame {
			raw, err := os.ReadFile(SegmentPath(dir, "job-a"))
			if err != nil {
				t.Fatal(err)
			}
			return segmentFrames(t, raw)
		}},
		{"two row frames swapped", func(t *testing.T, _ string, frames []segFrame) []segFrame {
			frames[1], frames[2] = frames[2], frames[1]
			return frames
		}},
		{"a row dropped and the count edited", func(t *testing.T, _ string, frames []segFrame) []segFrame {
			h := header(frames)
			binary.BigEndian.PutUint32(h[4+len("job-b"):], 2)
			return append(frames[:2], frames[3:]...)
		}},
		{"header id edited", func(t *testing.T, _ string, frames []segFrame) []segFrame {
			copy(header(frames)[4:], "job-c")
			return frames
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(Config{Dir: dir, MemCacheBytes: 1}) // reads go to the segment
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put("job-a", []byte("meta"), mkRows(3, 24)); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("job-b", []byte("meta"), mkRows(3, 24)); err != nil {
				t.Fatal(err)
			}
			path := SegmentPath(dir, "job-b")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, joinFrames(c.edit(t, dir, segmentFrames(t, raw))), 0o600); err != nil {
				t.Fatal(err)
			}
			reopened, err := Open(Config{Dir: dir, MemCacheBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			if reopened.Has("job-b") {
				t.Fatal("a re-opened store holds the tampered segment")
			}
			wantRows(t, reopened, "job-a", []byte("meta"), mkRows(3, 24))

			if err := os.WriteFile(path, joinFrames(c.edit(t, dir, segmentFrames(t, raw))), 0o600); err != nil {
				t.Fatal(err)
			}
			var ev *EvictedError
			if _, rows, err := s.Get("job-b"); !errors.As(err, &ev) || ev.Cause != CauseTorn || rows != nil {
				t.Fatalf("Get(job-b) = %d rows, %v; want *EvictedError (torn)", len(rows), err)
			}
		})
	}
}

// TestSegmentSaltPerWrite writes the same ID twice, across a close and
// re-open of the store under one key file: the two segments carry
// different salts, so their records seal under different subkeys although
// each process's sealer counts nonces from 1.
func TestSegmentSaltPerWrite(t *testing.T) {
	dir := t.TempDir()
	path := SegmentPath(dir, "job")
	write := func() (salt, nonce []byte) {
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		s.Remove("job")
		if err := s.Put("job", []byte("meta"), mkRows(2, 16)); err != nil {
			t.Fatal(err)
		}
		s.Close()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h := segmentFrames(t, raw)[0].body
		hdrLen := 4 + len("job") + 4 + saltSize
		return slices.Clone(h[hdrLen-saltSize : hdrLen]), slices.Clone(h[hdrLen+4 : hdrLen+4+12])
	}
	salt1, nonce1 := write()
	salt2, nonce2 := write()
	if !bytes.Equal(nonce1, nonce2) {
		t.Fatalf("meta nonces %x and %x differ; the salt check below would be vacuous", nonce1, nonce2)
	}
	if bytes.Equal(salt1, salt2) {
		t.Fatalf("both segments carry salt %x: the subkey and nonce repeat", salt1)
	}
}

// TestSegmentSizeIndependentOfValues: a segment's header fields, and so
// every record's associated data, have the same length whatever the row
// count. (That a segment is segmentSize bytes, a function of the lengths
// of its ID, meta and rows, is FuzzReadSegment's oracle.)
func TestSegmentSizeIndependentOfValues(t *testing.T) {
	salt := make([]byte, saltSize)
	for _, v := range []uint32{1, 255, 1 << 31, math.MaxUint32} {
		if got, want := len(headerAD("job", v, salt)), len(headerAD("job", 0, salt)); got != want {
			t.Errorf("a header for %d rows is %d bytes, for none %d", v, got, want)
		}
	}
}

// TestSegmentOldVersionReadsTorn pins the format bumps: a segment under an
// earlier magic fails validation and is dropped at scan like a torn one.
func TestSegmentOldVersionReadsTorn(t *testing.T) {
	for _, old := range []string{"PPJRES1\n", "PPJRES2\n"} {
		dir := t.TempDir()
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put("job", []byte("meta"), mkRows(2, 16)); err != nil {
			t.Fatal(err)
		}
		path := SegmentPath(dir, "job")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copy(raw, old)
		if err := os.WriteFile(path, raw, 0o600); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if s2.Has("job") {
			t.Fatalf("a %q segment survived the scan", old)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%q segment not deleted: %v", old, err)
		}
	}
}

// TestScanRefusesOversizedFrameBeforeAllocating opens a directory of
// 13-byte segments whose header frames each declare a 256 MiB body: the
// scan refuses each length against the header's cap before allocating
// anything near it.
func TestScanRefusesOversizedFrameBeforeAllocating(t *testing.T) {
	dir := t.TempDir()
	for i := range 4 {
		raw := binary.BigEndian.AppendUint32(append(slices.Clone(segMagic), segHeader), 1<<28)
		if err := os.WriteFile(filepath.Join(dir, "seg-"+string(rune('a'+i))+".res"), raw, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := Open(Config{Dir: dir})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("Open over four 16-byte segments allocated %d bytes, want under 1 MiB", got)
	}
	if len(s.IDs()) != 0 {
		t.Fatalf("scan admitted %v", s.IDs())
	}
}

// FuzzReadSegment parses arbitrary bytes as a segment, as a recovery scan
// parses what the host left on its disk (parseSegment, the whole of
// readSegment after the file read). Every parse either fails with an
// errSegment-wrapped error or returns exactly the segment the seed wrote
// under the fuzz key, from exactly segmentSize bytes: without the key no
// other contents open, and a trailing byte (the fourth seed) is not
// ignored.
// None panics. Each fuzz process writes its own seed under a fresh salt, so
// the valid bytes differ between processes.
func FuzzReadSegment(f *testing.F) {
	key := bytes.Repeat([]byte{0x42}, 16)
	id, meta, rows := "job-a", []byte("meta"), mkRows(3, 16)
	path := filepath.Join(f.TempDir(), "seg.res")
	if err := writeSegment(path, key, id, meta, rows); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(slices.Clone(segMagic))
	f.Add(valid[:segmentSize(id, meta, nil)]) // the header frame alone
	f.Add(append(slices.Clone(valid), 0))
	f.Fuzz(func(t *testing.T, raw []byte) {
		gotID, gotMeta, gotRows, err := parseSegment(raw, key)
		if err != nil {
			if !errors.Is(err, errSegment) {
				t.Fatalf("error %v does not wrap errSegment", err)
			}
			return
		}
		if gotID != id || !bytes.Equal(gotMeta, meta) || !slices.EqualFunc(gotRows, rows, bytes.Equal) {
			t.Fatalf("read %q, meta %q, %d rows; want the written segment", gotID, gotMeta, len(gotRows))
		}
		if want := segmentSize(id, meta, rows); int64(len(raw)) != want {
			t.Fatalf("%d bytes parsed as valid, want %d", len(raw), want)
		}
	})
}

package sim

import (
	"errors"
	"hash/fnv"
	"reflect"
	"testing"
)

// Append records one access, as record does for each event of a transfer.
func (t *Trace) Append(e Event) {
	t.fold(e)
	t.count.Add(1)
}

// TestTraceDigestKnownAnswer pins the digest to FNV-1a (the standard
// library's byte-wise hash/fnv) over each event's 13 bytes: the op, the
// region as a big-endian uint32 and the index as a big-endian uint64. The
// events reach past 24-bit regions and 56-bit indices, and a negative index
// is hashed as its two's complement.
func TestTraceDigestKnownAnswer(t *testing.T) {
	events := []Event{
		{OpGet, 0, 0},
		{OpPut, 3, 1},
		{OpDisk, 1<<24 + 5, 7},
		{OpGet, 1<<31 - 1, 1<<56 + 9},
		{OpPut, 2, -1},
		{OpGet, 1 << 30, 1 << 62},
	}
	ref := fnv.New64a()
	tr := NewTrace(4)
	for _, e := range events {
		tr.Append(e)
		r, i := uint32(e.Region), uint64(e.Index)
		ref.Write([]byte{byte(e.Op),
			byte(r >> 24), byte(r >> 16), byte(r >> 8), byte(r),
			byte(i >> 56), byte(i >> 48), byte(i >> 40), byte(i >> 32),
			byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)})
	}
	if got, want := tr.Digest(), ref.Sum64(); got != want {
		t.Fatalf("digest %#x, want FNV-1a %#x", got, want)
	}
	if tr.Count() != uint64(len(events)) || !reflect.DeepEqual(tr.Events(), events[:4]) || !tr.Truncated() {
		t.Fatalf("count %d, events %v, truncated %v; want %d, the first 4, true",
			tr.Count(), tr.Events(), tr.Truncated(), len(events))
	}
}

// TestHostTraceIsDeviceTrace drives a one-device host through every kind of
// transfer, error paths included, with record limits that end the raw
// prefix before, inside and after one call's events. The host trace, which
// takes the device trace's digest instead of hashing, must equal the device
// trace: digest, count and raw prefix.
func TestHostTraceIsDeviceTrace(t *testing.T) {
	for _, limit := range []int{0, 7, 90, 1 << 16} {
		h := NewHost(limit)
		cop, err := NewCoprocessor(h, Config{Sealer: PlainSealer{}, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cop.trace = NewTrace(limit) // the device keeps a raw prefix to compare
		r, w := h.MustCreateRegion("r", 0), h.MustCreateRegion("w", 0)
		same := func(_ int64, pt []byte) ([]byte, error) { return pt, nil }
		refuse := func(k int64, pt []byte) ([]byte, error) {
			if k == 40 {
				return nil, errors.New("fn refused the cell")
			}
			return pt, nil
		}
		var dst [][]byte
		steps := []error{
			cop.PutRange(r, 0, batchPuts(100)),
			func() error { _, err := cop.Get(r, 5); return err }(),
			cop.TransformRange(w, 0, r, 10, 70, same),
			cop.TransformRange(r, 0, r, 0, 100, refuse),
			func() error { dst, err = cop.GetBatchInto(dst, w, []int64{3, 1, 4}); return err }(),
			cop.PutBatch(w, []int64{2, 7}, batchPuts(2)),
			cop.RequestDisk(w, 0, 70),
			cop.RequestCopyOut(r, 100, w, 0, 20),
			cop.ScanRange(r, 0, 120, func(int64, []byte) error { return nil }),
		}
		for i, err := range steps {
			if (err != nil) != (i == 3) {
				t.Fatalf("limit %d, step %d: %v", limit, i, err)
			}
		}
		if _, err := cop.Get(r, 500); err == nil {
			t.Fatal("out-of-range get accepted")
		}
		if err := cop.RequestDisk(w, 60, 20); err == nil {
			t.Fatal("out-of-range disk request accepted")
		}
		ht, dt := h.Trace(), cop.Trace()
		st := cop.Stats()
		if want := st.Transfers() + st.DiskRequests; dt.Count() != want {
			t.Fatalf("limit %d: device trace counts %d, stats %d", limit, dt.Count(), want)
		}
		if ht.Digest() != dt.Digest() || ht.Count() != dt.Count() || !reflect.DeepEqual(ht.Events(), dt.Events()) {
			t.Fatalf("limit %d: host trace (%#x, %d, %d events) != device trace (%#x, %d, %d events)",
				limit, ht.Digest(), ht.Count(), len(ht.Events()), dt.Digest(), dt.Count(), len(dt.Events()))
		}
	}
}

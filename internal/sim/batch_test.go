package sim

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// batchCase is one host state and one set of arguments under which every
// batched entry point must behave exactly like the per-cell loop it claims
// to equal.
type batchCase struct {
	name    string
	devices int                   // coprocessors attached to the host (only the first runs)
	mutate  func(*Host, RegionID) // applied to the source region before the run
	from, n int64                 // the source range
	to      int64                 // where range puts and transforms write
	idx     []int64               // the index list of GetBatchInto and PutBatch
	failAt  int64                 // the cell at which ScanRange's and TransformRange's fn fails, or -1
}

// batchFixture is a host with a 130-cell source region "r" and a
// destination region "w", sealed with the plain sealer so that cells compare
// byte for byte. With two devices the second one works on its own region
// "z" while the first runs, so the host's count-only sink takes concurrent
// appends.
type batchFixture struct {
	h     *Host
	t     *Coprocessor
	r, w  RegionID
	seen  [][]byte // plaintexts the run handed back or passed to fn
	other *Coprocessor
	z     RegionID
}

const batchCells = 130

func newBatchFixture(tb testing.TB, c batchCase) *batchFixture {
	tb.Helper()
	h := NewHost(0)
	var cops []*Coprocessor
	for d := 0; d < max(c.devices, 1); d++ {
		cop, err := NewCoprocessor(h, Config{Sealer: PlainSealer{}, Seed: uint64(d + 1)})
		if err != nil {
			tb.Fatal(err)
		}
		cops = append(cops, cop)
	}
	f := &batchFixture{h: h, t: cops[0], r: h.MustCreateRegion("r", batchCells), w: h.MustCreateRegion("w", 4)}
	for i := int64(0); i < batchCells; i++ {
		h.Store(f.r, i, PlainSealer{}.SealTo(nil, batchPlain(i)))
	}
	if len(cops) > 1 {
		f.other, f.z = cops[1], h.MustCreateRegion("z", batchCells)
	}
	if c.mutate != nil {
		c.mutate(h, f.r)
	}
	return f
}

func batchPlain(i int64) []byte { return []byte(fmt.Sprintf("cell %03d", i)) }

// run runs one side of a comparison, with the second device, if any,
// working on "z" at the same time.
func (f *batchFixture) run(tb testing.TB, side func(*batchFixture, batchCase) error, c batchCase) error {
	busy := make(chan error, 1)
	if f.other == nil {
		busy <- nil
	} else {
		go func() {
			o := f.other
			err := errors.Join(
				o.PutRange(f.z, 0, batchPuts(batchCells)),
				o.TransformRange(f.z, 0, f.z, 0, batchCells, func(_ int64, pt []byte) ([]byte, error) { return pt, nil }),
				o.PutBatch(f.z, []int64{1, 0}, batchPuts(2)),
				o.RequestDisk(f.z, 0, batchCells))
			busy <- err
		}()
	}
	err := side(f, c)
	if berr := <-busy; berr != nil {
		tb.Fatalf("second device: %v", berr)
	}
	return err
}

func tamperAt(p int64) func(*Host, RegionID) {
	return func(h *Host, r RegionID) { h.Tamper(r, p, []byte{0}) } // no plain marker: ErrTamper
}

func (f *batchFixture) keep(pt []byte) { f.seen = append(f.seen, append([]byte(nil), pt...)) }

// keepAll keeps the plaintexts a get returned; a failed get returns none.
func (f *batchFixture) keepAll(pts [][]byte, err error) {
	if err == nil {
		for _, pt := range pts {
			f.keep(pt)
		}
	}
}

// fn is the callback of ScanRange and TransformRange. Like the shuffle's tag
// phase it returns one reused buffer, which the transfer layer must seal
// before it calls fn again.
func (f *batchFixture) fn(failAt int64) func(k int64, pt []byte) ([]byte, error) {
	var out []byte
	return func(k int64, pt []byte) ([]byte, error) {
		f.keep(pt)
		if k == failAt {
			return nil, fmt.Errorf("fn refused cell %d", k)
		}
		out = append(append(out[:0], '>'), pt...)
		return out, nil
	}
}

func batchPuts(n int64) [][]byte {
	pts := make([][]byte, n)
	for i := range pts {
		pts[i] = []byte(fmt.Sprintf("put %03d", i))
	}
	return pts
}

// batchEntry pairs a batched entry point with the sequential loop of
// Get/Put/RequestDisk it claims to equal.
type batchEntry struct {
	name             string
	batched, perCell func(f *batchFixture, c batchCase) error
}

var batchEntries = []batchEntry{
	{"GetRange",
		func(f *batchFixture, c batchCase) error {
			pts, err := f.t.GetRange(f.r, c.from, c.n)
			f.keepAll(pts, err)
			return err
		},
		func(f *batchFixture, c batchCase) error {
			var pts [][]byte
			for i := int64(0); i < c.n; i++ {
				pt, err := f.t.Get(f.r, c.from+i)
				if err != nil {
					return err
				}
				pts = append(pts, pt)
			}
			f.keepAll(pts, nil)
			return nil
		}},
	{"ScanRange",
		func(f *batchFixture, c batchCase) error {
			fn := f.fn(c.failAt)
			return f.t.ScanRange(f.r, c.from, c.n, func(k int64, pt []byte) error {
				_, err := fn(k, pt)
				return err
			})
		},
		func(f *batchFixture, c batchCase) error {
			fn := f.fn(c.failAt)
			for i := int64(0); i < c.n; i++ {
				pt, err := f.t.Get(f.r, c.from+i)
				if err != nil {
					return err
				}
				if _, err := fn(i, pt); err != nil {
					return err
				}
			}
			return nil
		}},
	{"GetBatchInto",
		func(f *batchFixture, c batchCase) error {
			pts, err := f.t.GetBatchInto(nil, f.r, c.idx)
			f.keepAll(pts, err)
			return err
		},
		func(f *batchFixture, c batchCase) error {
			var pts [][]byte
			for _, i := range c.idx {
				pt, err := f.t.Get(f.r, i)
				if err != nil {
					return err
				}
				pts = append(pts, pt)
			}
			f.keepAll(pts, nil)
			return nil
		}},
	{"PutRange",
		func(f *batchFixture, c batchCase) error { return f.t.PutRange(f.w, c.to, batchPuts(c.n)) },
		func(f *batchFixture, c batchCase) error {
			for i, pt := range batchPuts(c.n) {
				if err := f.t.Put(f.w, c.to+int64(i), pt); err != nil {
					return err
				}
			}
			return nil
		}},
	{"PutBatch",
		func(f *batchFixture, c batchCase) error {
			return f.t.PutBatch(f.w, c.idx, batchPuts(int64(len(c.idx))))
		},
		func(f *batchFixture, c batchCase) error {
			for k, pt := range batchPuts(int64(len(c.idx))) {
				if err := f.t.Put(f.w, c.idx[k], pt); err != nil {
					return err
				}
			}
			return nil
		}},
	{"TransformRange",
		func(f *batchFixture, c batchCase) error {
			return f.t.TransformRange(f.w, c.to, f.r, c.from, c.n, f.fn(c.failAt))
		},
		func(f *batchFixture, c batchCase) error { return f.transformLoop(f.w, c.to, c) }},
	{"TransformRange/in-place",
		func(f *batchFixture, c batchCase) error {
			return f.t.TransformRange(f.r, c.from, f.r, c.from, c.n, f.fn(c.failAt))
		},
		func(f *batchFixture, c batchCase) error { return f.transformLoop(f.r, c.from, c) }},
	{"RequestDisk",
		func(f *batchFixture, c batchCase) error { return f.t.RequestDisk(f.r, c.from, c.n) },
		func(f *batchFixture, c batchCase) error {
			for i := int64(0); i < c.n; i++ {
				if err := f.t.RequestDisk(f.r, c.from+i, 1); err != nil {
					return err
				}
			}
			return nil
		}},
}

func (f *batchFixture) transformLoop(dst RegionID, to int64, c batchCase) error {
	fn := f.fn(c.failAt)
	for k := int64(0); k < c.n; k++ {
		pt, err := f.t.Get(f.r, c.from+k)
		if err != nil {
			return err
		}
		out, err := fn(k, pt)
		if err != nil {
			return err
		}
		if err := f.t.Put(dst, to+k, out); err != nil {
			return err
		}
	}
	return nil
}

var batchCases = []batchCase{
	{name: "clean", from: 0, n: batchCells, to: 0, idx: []int64{5, 129, 0, 64, 63, 5}, failAt: -1},
	{name: "out-of-range", from: 100, n: 40, to: 120, idx: []int64{3, batchCells, 4}, failAt: -1},
	{name: "unwritten", mutate: func(h *Host, r RegionID) { h.Store(r, 70, nil) },
		from: 0, n: batchCells, to: 0, idx: []int64{1, 70, 2}, failAt: -1},
	{name: "tamper-0", mutate: tamperAt(0), from: 0, n: batchCells, idx: []int64{129, 0, 1}, failAt: -1},
	{name: "tamper-3", mutate: tamperAt(3), from: 0, n: batchCells, idx: []int64{129, 3, 1}, failAt: -1},
	{name: "tamper-63", mutate: tamperAt(63), from: 0, n: batchCells, idx: []int64{129, 63, 1}, failAt: -1},
	{name: "tamper-64", mutate: tamperAt(64), from: 0, n: batchCells, idx: []int64{129, 64, 1}, failAt: -1},
	{name: "fn-error", from: 0, n: batchCells, idx: []int64{0, 1}, failAt: 65},
	{name: "negative-put", from: 0, n: batchCells, to: -1, idx: []int64{0, 5, -1, 7}, failAt: -1},
	{name: "two-devices", devices: 2, from: 0, n: batchCells, idx: []int64{5, 129, 0}, failAt: -1},
	{name: "two-devices/tamper-3", devices: 2, mutate: tamperAt(3), from: 0, n: batchCells,
		idx: []int64{129, 3, 1}, failAt: 65},
}

// TestBatchedEqualsSequential runs every batched entry point against the
// per-cell Get/Put/RequestDisk loop it claims to equal, on two identical
// hosts, and requires the same Stats, device trace, host trace, host cells,
// plaintexts and error, on clean runs and on every error path.
func TestBatchedEqualsSequential(t *testing.T) {
	for _, c := range batchCases {
		for _, e := range batchEntries {
			t.Run(c.name+"/"+e.name, func(t *testing.T) {
				a, b := newBatchFixture(t, c), newBatchFixture(t, c)
				errA, errB := a.run(t, e.batched, c), b.run(t, e.perCell, c)
				if msg(errA) != msg(errB) || errors.Is(errA, ErrTamper) != errors.Is(errB, ErrTamper) {
					t.Errorf("error: batched %v, per-cell %v", errA, errB)
				}
				if a.t.Stats() != b.t.Stats() {
					t.Errorf("Stats: batched %+v, per-cell %+v", a.t.Stats(), b.t.Stats())
				}
				if !a.t.Trace().Equal(b.t.Trace()) {
					t.Errorf("device trace: batched %d events, per-cell %d", a.t.Trace().Count(), b.t.Trace().Count())
				}
				if !a.h.Trace().Equal(b.h.Trace()) {
					t.Errorf("host trace: batched %d events, per-cell %d", a.h.Trace().Count(), b.h.Trace().Count())
				}
				if a.h.DiskWrites() != b.h.DiskWrites() {
					t.Errorf("disk writes: batched %d, per-cell %d", a.h.DiskWrites(), b.h.DiskWrites())
				}
				for _, id := range []RegionID{a.r, a.w} {
					if !sameCells(a.h, b.h, id) {
						t.Errorf("host cells of %s differ", a.h.RegionName(id))
					}
				}
				if len(a.seen) != len(b.seen) {
					t.Fatalf("plaintexts: batched %d, per-cell %d", len(a.seen), len(b.seen))
				}
				for k := range a.seen {
					if !bytes.Equal(a.seen[k], b.seen[k]) {
						t.Fatalf("plaintext %d: batched %q, per-cell %q", k, a.seen[k], b.seen[k])
					}
				}
			})
		}
	}
}

func msg(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func sameCells(a, b *Host, id RegionID) bool {
	if a.RegionLen(id) != b.RegionLen(id) {
		return false
	}
	for i := int64(0); i < int64(a.RegionLen(id)); i++ {
		if !bytes.Equal(a.Inspect(id, i), b.Inspect(id, i)) || (a.Inspect(id, i) == nil) != (b.Inspect(id, i) == nil) {
			return false
		}
	}
	return true
}

// TestTransferChargingRule pins the one rule every transfer path follows: a
// get counts iff its ciphertext reached T (a tampered cell counts, an
// unwritten or out-of-range one does not), a put counts iff H stored it,
// nothing after the failing cell counts, and on a one-device host the host
// trace is the device trace.
func TestTransferChargingRule(t *testing.T) {
	for _, c := range []struct {
		name      string
		mutate    func(*Host, RegionID)
		run       func(*Coprocessor, RegionID) error
		gets, put uint64
	}{
		{"tampered cell 3 of 8", tamperAt(3),
			func(t *Coprocessor, r RegionID) error { _, err := t.GetRange(r, 0, 8); return err }, 4, 0},
		{"unwritten cell 3 of 8", func(h *Host, r RegionID) { h.Store(r, 3, nil) },
			func(t *Coprocessor, r RegionID) error { _, err := t.GetRange(r, 0, 8); return err }, 3, 0},
		{"out of range past cell 129", nil,
			func(t *Coprocessor, r RegionID) error { _, err := t.GetRange(r, 126, 8); return err }, 4, 0},
		{"put at -1", nil,
			func(t *Coprocessor, r RegionID) error { return t.Put(r, -1, []byte("x")) }, 0, 0},
		{"put batch refused at its third cell", nil,
			func(t *Coprocessor, r RegionID) error {
				return t.PutBatch(r, []int64{0, 1, -1, 2}, batchPuts(4))
			}, 0, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newBatchFixture(t, batchCase{mutate: c.mutate})
			if err := c.run(f.t, f.r); err == nil {
				t.Fatal("error path returned nil")
			}
			st := f.t.Stats()
			if st.Gets != c.gets || st.Puts != c.put {
				t.Errorf("charged %d gets, %d puts; want %d, %d", st.Gets, st.Puts, c.gets, c.put)
			}
			if n := f.t.Trace().Count(); n != c.gets+c.put {
				t.Errorf("device trace has %d events, want %d", n, c.gets+c.put)
			}
			if !f.h.Trace().Equal(f.t.Trace()) {
				t.Errorf("host trace (%d events) is not the device trace (%d)", f.h.Trace().Count(), f.t.Trace().Count())
			}
		})
	}
}

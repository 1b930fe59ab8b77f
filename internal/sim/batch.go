package sim

import "fmt"

// This file holds the transfer core and the batched entry points. Every
// transfer — Get, Put, RequestDisk and RequestCopyOut as much as the batched
// calls below — takes one path: H serves the cells (host.go), T opens them
// in one loop (open) or seals them in one loop (seal), and one recorder
// (record) is the only code that writes the device trace, the host trace
// and the transfer counters. A batched call is therefore, by construction,
// the sequential loop of Get/Put/RequestDisk it replaces: the same Stats,
// device trace, host trace, cells and error, on clean runs and on every
// error path (TestBatchedEqualsSequential). What batching changes is only
// the synchronisation cost: the region lock and the host trace lock are
// taken once per window instead of once per cell. Ciphertext references,
// sealed ciphertexts and plaintext staging buffers are reused from T's
// scratch, and H copies each sealed ciphertext into the cell's own buffer.

// TransferBatch is the staging window of the range operations: how many
// cells transit T per lock acquisition. The window is DMA-style staging and
// is not charged against the device's M-tuple memory, extending the
// uncharged "+2" staging convention of §4.1 (algorithm-visible state is
// still bounded by Grant).
const TransferBatch = 64

// access is one kind of transfer over a span of cells.
type access struct {
	op Op
	id RegionID
	span
}

// event is the access to the k-th cell of x's span.
func (x *access) event(k int64) Event {
	return Event{Op: x.op, Region: x.id, Index: x.at(k)}
}

// record is the only writer of the access sequence and of Stats.Gets, Puts
// and DiskRequests. It appends, for k in [0, n), the k-th cell of each
// access in xs in turn to T's trace and to H's — exactly with one device
// attached, as a count past one — and charges the transfers.
//
// Each event is hashed once, into T's trace. With one device attached H's
// trace is T's, event for event, so it takes T's digest and keeps the
// events in its own raw prefix up to its limit. Both counts grow by the
// call's total at once.
//
// Every path charges by one rule. A get counts iff its ciphertext reached
// T: a cell that fails to open (tampering) or that fn refuses counts, a
// cell H cannot serve (out of range, never written) does not. A put counts
// iff H stored it, so a negative index does not; a disk request counts iff
// the cell exists. Nothing after the failing cell counts. So on a
// one-device host the host trace is the device trace, on every path.
func (t *Coprocessor) record(n int64, xs ...access) {
	if n <= 0 {
		return
	}
	for k := int64(0); k < n; k++ {
		for i := range xs {
			t.trace.fold(xs[i].event(k))
		}
	}
	total := uint64(n) * uint64(len(xs))
	t.trace.count.Add(total)
	h := t.host
	if h.attached.Load() <= 1 {
		ht := h.trace
		h.traceMu.Lock()
		ht.hash = t.trace.hash
		for k := int64(0); k < n && len(ht.events) < ht.recordLimit; k++ {
			for i := range xs {
				ht.keep(xs[i].event(k))
			}
		}
		h.traceMu.Unlock()
	}
	h.trace.count.Add(total)
	for i := range xs {
		switch xs[i].op {
		case OpGet:
			t.stats.Gets += uint64(n)
		case OpPut:
			t.stats.Puts += uint64(n)
		case OpDisk:
			t.stats.DiskRequests += uint64(n)
			h.diskWrites.Add(uint64(n))
		}
	}
}

// get is the get path of every entry point: H hands over the cells of s up
// to the first it cannot serve, open opens them into pts (passing each to
// fn), and record charges each get whose ciphertext reached T.
func (t *Coprocessor) get(id RegionID, s span, pts [][]byte, fn func(k int64, pt []byte) ([]byte, error)) error {
	cts, rerr := t.host.read(id, s, t.ctScratch[:0])
	t.ctScratch = cts
	done, err := t.open(id, s, cts, pts, fn)
	t.record(reached(done, err), access{OpGet, id, s})
	if err != nil {
		return err
	}
	return rerr
}

// put is the put path of every entry point: seal seals pts, H stores them
// up to the first cell it refuses, and record charges each stored put.
func (t *Coprocessor) put(id RegionID, s span, pts [][]byte) error {
	cts := t.seal(pts)
	stored, err := t.host.write(id, s, cts)
	t.record(stored, access{OpPut, id, s})
	return err
}

// open is the one open loop. It opens cts[k], the ciphertext of the k-th
// cell of s, into pts[k][:0] — a fresh buffer where pts[k] is nil — and,
// when fn is non-nil, passes the plaintext to fn and keeps fn's result in
// pts[k] in its place (so fn may reuse the buffer it returns). It stops at
// the first cell that fails to open or that fn refuses, and returns how
// many cells it completed; the failing cell's get has reached T all the
// same.
func (t *Coprocessor) open(id RegionID, s span, cts, pts [][]byte, fn func(k int64, pt []byte) ([]byte, error)) (int64, error) {
	for k, ct := range cts {
		pt, err := t.sealer.OpenTo(pts[k][:0], ct)
		if err != nil {
			// Tampering detected: the computation must terminate (§3.3.1).
			return int64(k), fmt.Errorf("sim: get %s[%d]: %w", t.host.RegionName(id), s.at(int64(k)), err)
		}
		pts[k] = pt
		if fn != nil {
			out, err := fn(int64(k), pt)
			if err != nil {
				return int64(k), err
			}
			pts[k] = append(pt[:0], out...)
		}
	}
	return int64(len(cts)), nil
}

// reached is how many gets reached T when open completed done cells and
// then returned err.
func reached(done int64, err error) int64 {
	if err != nil {
		return done + 1
	}
	return done
}

// seal is the one seal loop: it seals pts into T's reused ciphertext
// buffers, for the caller to hand to H, which copies them into its cells.
func (t *Coprocessor) seal(pts [][]byte) [][]byte {
	for len(t.sealScratch) < len(pts) {
		t.sealScratch = append(t.sealScratch, nil)
	}
	cts := t.sealScratch[:len(pts)]
	for k, pt := range pts {
		cts[k] = t.sealer.SealTo(cts[k][:0], pt)
	}
	return cts
}

// staging returns n of T's reusable plaintext buffers.
func (t *Coprocessor) staging(n int64) [][]byte {
	for int64(len(t.ptScratch)) < n {
		t.ptScratch = append(t.ptScratch, nil)
	}
	return t.ptScratch[:n]
}

// GetRange transfers cells [from, from+n) from H into T and decrypts them,
// exactly like n sequential Gets.
func (t *Coprocessor) GetRange(id RegionID, from, n int64) ([][]byte, error) {
	if n <= 0 {
		return nil, nil
	}
	pts := make([][]byte, n)
	for off := int64(0); off < n; off += TransferBatch {
		c := min(TransferBatch, n-off)
		if err := t.get(id, span{from: from + off, n: c}, pts[off:off+c], nil); err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// ScanRange streams cells [from, from+n) through fn, exactly like n
// sequential Gets each followed by fn. Plaintexts are opened into T's
// staging buffers, which fn must not retain; fn must not transfer.
func (t *Coprocessor) ScanRange(id RegionID, from, n int64, fn func(k int64, pt []byte) error) error {
	for off := int64(0); off < n; off += TransferBatch {
		c := min(TransferBatch, n-off)
		err := t.get(id, span{from: from + off, n: c}, t.staging(c), func(k int64, pt []byte) ([]byte, error) {
			return nil, fn(off+k, pt)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// PutRange encrypts the plaintexts inside T and transfers them to cells
// [from, from+len(plaintexts)), exactly like sequential Puts.
func (t *Coprocessor) PutRange(id RegionID, from int64, plaintexts [][]byte) error {
	n := int64(len(plaintexts))
	for off := int64(0); off < n; off += TransferBatch {
		c := min(TransferBatch, n-off)
		if err := t.put(id, span{from: from + off, n: c}, plaintexts[off:off+c]); err != nil {
			return err
		}
	}
	return nil
}

// GetBatchInto transfers the cells at the given (not necessarily
// contiguous) indices into T, opening each into dst[k][:0] so a caller that
// reuses dst across calls performs no steady-state allocations. It returns
// dst resized to len(indices), and equals sequential Gets in indices order.
func (t *Coprocessor) GetBatchInto(dst [][]byte, id RegionID, indices []int64) ([][]byte, error) {
	for len(dst) < len(indices) {
		dst = append(dst, nil)
	}
	dst = dst[:len(indices)]
	return dst, t.get(id, span{n: int64(len(indices)), idx: indices}, dst, nil)
}

// PutBatch encrypts the plaintexts inside T and writes them to the given
// indices, exactly like sequential Puts in indices order.
func (t *Coprocessor) PutBatch(id RegionID, indices []int64, plaintexts [][]byte) error {
	if len(indices) != len(plaintexts) {
		return fmt.Errorf("sim: put batch of %d cells with %d indices", len(plaintexts), len(indices))
	}
	return t.put(id, span{n: int64(len(indices)), idx: indices}, plaintexts)
}

// TransformRange is a batched read-modify-write scan: for each k in [0, n)
// it gets src[srcFrom+k], passes the plaintext through fn, and puts fn's
// result at dst[dstFrom+k], exactly like that loop of Get, fn and Put. The
// region locks are held once per TransferBatch window, so fn runs under
// them and must not access the host (counter charges like ChargePredicate
// are fine). fn may retain neither pt nor its return value past the call,
// but may return the same buffer every time.
//
// dst and src may be the same region (in-place rewrite, e.g. the shuffle
// tag/strip phases) or different ones (re-encrypting copy, e.g. filter
// fills); distinct regions are locked in RegionID order.
func (t *Coprocessor) TransformRange(dst RegionID, dstFrom int64, src RegionID, srcFrom, n int64,
	fn func(k int64, pt []byte) ([]byte, error)) error {
	for off := int64(0); off < n; off += TransferBatch {
		c := min(TransferBatch, n-off)
		from, to := span{from: srcFrom + off, n: c}, span{from: dstFrom + off, n: c}
		var done int64
		var err error
		stored, herr := t.host.transformRange(dst, to, src, from, t.ctScratch[:0], func(cts [][]byte) [][]byte {
			t.ctScratch = cts
			pts := t.staging(int64(len(cts)))
			done, err = t.open(src, from, cts, pts, func(k int64, pt []byte) ([]byte, error) {
				return fn(off+k, pt)
			})
			return t.seal(pts[:done])
		})
		t.record(stored, access{OpGet, src, from}, access{OpPut, dst, to})
		t.record(reached(done, err)-stored, access{OpGet, src, span{from: from.from + stored, n: 1}})
		if err == nil {
			err = herr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

package core

import (
	"ppj/internal/oblivious"
	"ppj/internal/sim"
)

// This file adds the cross-query sorted-relation cache to Algorithm 7 —
// the amortization idea of "Equi-Joins over Encrypted Data for Series of
// Queries" (PAPERS.md) adapted to the coprocessor model. The dominant cost
// of a join is obliviously sorting the inputs; when a series of jobs over
// the same contract consumes an unchanged sealed upload, the sorted form
// of that side can be reused instead of re-sorted.
//
// The cached layout splits the working array into two fixed halves of
// halfM = max(NextPow2(|A|), NextPow2(|B|)) cells: side A sorts (or is
// restored) into [0, halfM), side B into [halfM, 2·halfM), each ascending
// by (key, tag) with padding maximal at its top, and one odd-even merge of
// the two halves yields the same key-sorted union the cache-less front half
// of join7 produces with one monolithic sort. The tail (index scans,
// expansion, alignment, stitch) is the same code either way.
//
// Leakage: whether a side hits is a host-visible bit — the host sees a
// restore (halfM puts) instead of a sort. But the bit is a pure function
// of public metadata (the cache key: contract, side, public size, upload
// digest computed inside T), i.e. it reveals only "this upload equals a
// previous upload of this contract", which the host already knows from
// observing identical sealed upload traffic sizes and the server's own
// manifest. Conditioned on the hit/miss bits, every transfer schedule
// below is a pure function of (|A|, |B|, S) — pinned by
// Join7CachedTransfers and the access-pattern invariance tests.

// SortedCache is the reuse seam between executions: a store of obliviously
// sorted working-cell arrays keyed by public metadata plus an in-enclave
// upload digest. Implementations must return cells equal to what Store
// received (the server seals them at rest); a failed or declined Store is
// harmless — the next run simply sorts cold again.
type SortedCache interface {
	// Lookup returns the cached sorted cells for a key, if present.
	Lookup(key string) ([][]byte, bool)
	// Store offers the sorted cells for a key; implementations may decline.
	Store(key string, cells [][]byte)
}

// CacheUse reports how the cache participated in one join.
type CacheUse struct {
	TriedA, TriedB bool // side was non-empty with a key and a cache to consult
	HitA, HitB     bool // side restored a cached sorted form instead of sorting
}

// Hits counts sides restored from the cache.
func (u CacheUse) Hits() int {
	n := 0
	if u.HitA {
		n++
	}
	if u.HitB {
		n++
	}
	return n
}

// Misses counts sides that consulted the cache and sorted cold.
func (u CacheUse) Misses() int {
	n := 0
	if u.TriedA && !u.HitA {
		n++
	}
	if u.TriedB && !u.HitB {
		n++
	}
	return n
}

// a7HalfM is the fixed size of each side's half of the cached working
// array: both halves share the larger side's power-of-two envelope so the
// merged array is a power of two.
func a7HalfM(aN, bN int64) int64 {
	h := oblivious.NextPow2(aN)
	if hb := oblivious.NextPow2(bN); hb > h {
		h = hb
	}
	return h
}

// buildSortedHalf establishes one side's half of the working array, cells
// [lo, lo+halfM): the side's rows sorted ascending by (key, tag) followed
// by maximal padding. On a cache hit the sorted cells are restored with
// halfM puts; cold, the side is wrapped in (2q transfers), span-sorted over
// the device group, padded, and — when its key is non-empty — read back (q
// gets) and offered to the cache. Everything but the sort runs on the
// group's first device. An empty side is pure padding and never consults
// the cache.
func (c *a7Codec) buildSortedHalf(group []*sim.Coprocessor, w sim.RegionID, lo, halfM int64, side sim.Table, tag byte, cache SortedCache, key string) (tried, hit bool, err error) {
	t, q := group[0], side.N
	if q == 0 {
		return false, false, oblivious.PadRange(t, w, lo, lo+halfM)
	}
	tried = key != ""
	if tried {
		if cells, ok := cache.Lookup(key); ok && c.validSortedCells(cells, q) {
			if err := c.restoreSorted(t, w, lo, cells); err != nil {
				return tried, false, err
			}
			return tried, true, oblivious.PadRange(t, w, lo+q, lo+halfM)
		}
	}
	if err := c.wrapSide(t, w, lo, side, tag); err != nil {
		return tried, false, err
	}
	if err := oblivious.SortSpan(group, w, lo, q, c.b, c.lessKeyTag); err != nil {
		return tried, false, err
	}
	if err := oblivious.PadRange(t, w, lo+oblivious.NextPow2(q), lo+halfM); err != nil {
		return tried, false, err
	}
	if tried {
		cells, err := c.readSorted(t, w, lo, q)
		if err != nil {
			return tried, false, err
		}
		cache.Store(key, cells)
	}
	return tried, false, nil
}

// validSortedCells accepts a cached entry only if it has exactly the
// side's row count of working cells of this join's cell size; anything
// else is treated as a miss.
func (c *a7Codec) validSortedCells(cells [][]byte, q int64) bool {
	if int64(len(cells)) != q {
		return false
	}
	for _, cell := range cells {
		if len(cell) != c.cell {
			return false
		}
	}
	return true
}

// restoreSorted writes a cached sorted half back into the working array.
func (c *a7Codec) restoreSorted(t *sim.Coprocessor, w sim.RegionID, lo int64, cells [][]byte) error {
	for off := int64(0); off < int64(len(cells)); off += sim.TransferBatch {
		chunk := min64(sim.TransferBatch, int64(len(cells))-off)
		if err := t.PutRange(w, lo+off, cells[off:off+chunk]); err != nil {
			return err
		}
	}
	return nil
}

// readSorted snapshots a freshly sorted half out of the working array so
// it can be offered to the cache. The cells still carry zeroed index
// fields (the scans run after the merge), so the snapshot is exactly what
// a future restore must replay.
func (c *a7Codec) readSorted(t *sim.Coprocessor, w sim.RegionID, lo, q int64) ([][]byte, error) {
	cells := make([][]byte, 0, q)
	for off := int64(0); off < q; off += sim.TransferBatch {
		chunk := min64(sim.TransferBatch, q-off)
		pts, err := t.GetRange(w, lo+off, chunk)
		if err != nil {
			return nil, err
		}
		for _, pt := range pts {
			cells = append(cells, append([]byte(nil), pt...))
		}
	}
	return cells, nil
}

// Join7CachedTransfers is the exact transfer count of Algorithm 7, summed
// over the devices, with a participating cache on both non-empty sides, at
// block size B = MaxBlock — that is, at every device memory M ≥ 64, the
// unbounded default included. At a smaller M the algorithm table's row
// prices Algorithm 7 at M's own block size (Algorithm.Transfers).
func Join7CachedTransfers(aN, bN, s int64, hitA, hitB bool) int64 {
	return join7CachedTransfers(aN, bN, s, hitA, hitB, oblivious.MaxBlock)
}

// join7CachedTransfers is the cached closed form at block size b:
//
//	side(q, hit) = halfM                                  hit or empty
//	             = halfM + 3q − NextPow2(q) + Sort(q, B)  miss
//	+ Merge(2·halfM, B)                                   half merge
//	+ join7TailTransfers(n, S, B)                         scans, expansion, stitch
//
// with halfM = max(NextPow2(|A|), NextPow2(|B|)) and n = |A|+|B|. The miss
// term is wrap (2q) + the span sort (its own pads to NextPow2(q) included)
// + pads up to halfM + the cache readback (q); the hit term is the bare
// halfM-cell restore. Everything from the merge on is independent of the
// hit bits — the cache can only remove work, never reshape the tail.
func join7CachedTransfers(aN, bN, s int64, hitA, hitB bool, b int64) int64 {
	n := aN + bN
	if n == 0 {
		return 0
	}
	halfM := a7HalfM(aN, bN)
	side := func(q int64, hit bool) int64 {
		if q == 0 || hit {
			return halfM
		}
		return halfM + a7SortSaving(q, b)
	}
	return side(aN, hitA) + side(bN, hitB) +
		oblivious.MergeHalvesTransfers(2*halfM, b) + join7TailTransfers(n, s, b)
}

// a7SortSaving is what a cache hit saves on a side of q > 0 rows at block
// size b: the wrap (2q), the span sort net of its pads (the restore writes
// the pads too) and the readback (q).
func a7SortSaving(q, b int64) int64 {
	return 3*q - oblivious.NextPow2(q) + oblivious.SortTransfers(q, b)
}

package oblivious

import (
	"fmt"
	"math/bits"

	"ppj/internal/sim"
)

// This file implements the oblivious distribution network, its inverse —
// order-preserving compaction — and the oblivious fill-forward scan, the
// expansion primitives behind the O(n log n)-style equijoin (Algorithm 7,
// after Krastnikov et al., "Efficient Oblivious Database Joins",
// PAPERS.md). Together they obliviously expand a list of tuples by
// prefix-summed multiplicities: Compact moves the contributing tuples to a
// rank-preserving prefix, Distribute routes each to the first output slot of
// its group, FillForward duplicates it into the remaining slots. Like the
// sorting network, every step's access schedule is a pure function of the
// (public) array length and the device count — the pairs touched, their
// order, and the four transfers per pair never depend on cell contents.

// RouteFunc inspects a decrypted cell and reports whether it is a real
// element and, if so, the output slot it is destined for: its destination
// under Distribute, its rank among the real cells under Compact. It is
// evaluated inside T; the result never reaches the host.
type RouteFunc func(pt []byte) (real bool, slot int64)

// Distribute obliviously routes the real cells of region [0, n) to their
// destinations in [0, n) over a power-of-two device group. The input must
// be compacted: the real cells occupy a prefix [0, K), their destinations
// are strictly increasing, and cell k's destination satisfies dest ≥ k
// (destinations are distinct slots, so this always holds after a
// rank-preserving compaction). Cells vacated by a move become non-real
// cells of the input, so callers interleave real cells with uniform "empty"
// fillers of the same size.
//
// The network processes the strides j < n from the largest power of two
// down to 1; within a stride, pairs (i, i+j) from the top down, moving T[i]
// forward to T[i+j] exactly when T[i] is real and its destination is at
// least i+j. An element whose destination d lies in [i+j, i+2j) arrives
// exactly at d after the remaining strides (the standard induction: after
// stride j every real cell is within j−1 slots of its destination, and no
// two cells collide because destinations are strictly increasing). A pair
// with i+j ≥ n could only fire for a destination ≥ n, so it is not run, and
// n need not be a power of two. Every pair costs four transfers — get both,
// decide inside T, put both — regardless of the decision, so the trace is
// content-independent.
//
// The pairs of one stride are not independent — (i, i+j) and (i+j, i+2j)
// share a cell — but the residue classes of i mod j are: each is a chain
// that must be walked in order, and different chains touch disjoint cells.
// Device w of the group takes the classes ≡ w (mod P) and walks them in
// position order, which is each chain's order; the strides run one after
// another.
//
// With a block size b > 1 (a power of two up to MaxBlock) only the strides
// j ≥ b run as pairs. After them every real cell is within b−1 slots below
// its destination, and one window pass on the group's first device replaces
// the strides below b: it reads b-cell chunks from the top down, one chunk
// ahead of the chunk it writes, and writes every slot of a chunk with the
// real cell destined there or else a non-real cell it holds (see window).
// The pass holds at most 2b cells, which Distribute Grants on every device
// of the group, and costs one read and one write per cell. Summed
// transfers: DistributeTransfers(n, b) at every group size, and on one
// device the order is the sequential one.
func Distribute(cops []*sim.Coprocessor, region sim.RegionID, n, b int64, route RouteFunc) error {
	return strides(cops, region, n, b, false, func(lo, _ []byte, _, k int64) bool {
		real, dest := route(lo)
		return real && dest >= k
	}, func(pt []byte, _ int64) (bool, int64) { return route(pt) })
}

// Compact obliviously moves the real cells of region [0, n) over a
// power-of-two device group to the prefix [0, K), keeping their order; route
// reports each real cell's rank, the number of real cells before it. The
// non-real cells end up, in some order, in [K, n).
//
// Compact is Distribute run backwards. Distribute moves a cell from rank r
// to destination d by the binary digits of d−r, largest stride first;
// Compact moves a real cell from position q back to its rank r by the
// digits of q−r, stride 1 first: at stride j = 1, 2, 4, … < n it walks the
// pairs (i, i+j) from the bottom up and moves the real cell at p = i+j back
// to i exactly when bit j of p−r is set. That replays Distribute's swaps in
// reverse, so it is collision-free by the forward proof, and it shares
// Distribute's pairs and chain schedule over the group; like Distribute it
// runs no pair with i+j ≥ n, so the region needs no padding. Four transfers
// per pair, whatever the decision.
//
// With a block size b > 1 the strides below b are Distribute's window pass
// run backwards, and it runs first: chunks from the bottom up, each real
// cell written to q − ((q−r) mod b), where the strides below b would have
// left it — within b−1 slots below q, on distinct slots because Distribute's
// intermediate state is collision-free. The strides j ≥ b follow as pairs.
// Summed transfers: CompactTransfers(n, b) at every group size.
func Compact(cops []*sim.Coprocessor, region sim.RegionID, n, b int64, route RouteFunc) error {
	return strides(cops, region, n, b, true, func(_, hi []byte, i, k int64) bool {
		real, rank := route(hi)
		return real && (k-rank)&(k-i) != 0
	}, func(pt []byte, q int64) (bool, int64) {
		real, rank := route(pt)
		return real, q - (q-rank)&(b-1)
	})
}

// moveFunc decides inside T, from the decrypted cells of pair (i, k), i < k,
// whether they trade places.
type moveFunc func(lo, hi []byte, i, k int64) bool

// placeFunc decides inside T where the window pass writes the cell it read
// at position q: whether it is real and, if so, the slot it goes to.
type placeFunc func(pt []byte, q int64) (real bool, slot int64)

// strides runs the schedule Distribute and Compact share over the cells
// [0, n) of a region: for every power of two j with b ≤ j < n, the pairs
// (i, i+j) with i+j < n, largest stride first and each chain walked
// top-down, or — backward — smallest stride first and each chain walked
// bottom-up; and for b > 1 the window pass, after the strides top-down or —
// backward — before them bottom-up. Within a stride, device w walks the
// pairs with i ≡ w (mod min(P, j)), which are whole chains because P and j
// are powers of two.
func strides(cops []*sim.Coprocessor, region sim.RegionID, n, b int64, backward bool, move moveFunc, place placeFunc) error {
	p, err := groupSize(cops)
	switch {
	case err != nil:
		return err
	case n < 0:
		return fmt.Errorf("oblivious: negative network length %d", n)
	}
	if err := checkBlock(b); err != nil || n <= 1 {
		return err
	}
	release, err := grantBlocks(cops, b)
	if err != nil {
		return err
	}
	defer release()
	if backward && b > 1 {
		if err := window(cops[0], region, n, b, true, place); err != nil {
			return err
		}
	}
	xs := make([]xchg, p)
	levels := bits.Len64(uint64(n - 1))
	for s := range levels {
		j := int64(1) << (levels - 1 - s)
		if backward {
			j = int64(1) << s
		}
		if j < b {
			continue
		}
		q := min(p, j)
		if err := ForEach(q, func(w int64) error {
			pairs := (n - j - w + q - 1) / q // i = w, w+q, … < n−j
			for t := range pairs {
				i := w + t*q
				if !backward {
					i = w + (pairs-1-t)*q
				}
				if err := xs[w].movePair(cops[w], region, i, i+j, move); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if !backward && b > 1 {
		return window(cops[0], region, n, b, false, place)
	}
	return nil
}

// movePair performs one pair of the expansion networks: get cells i and k
// (one batched transfer), decide inside T whether they trade places, put
// both back (swapped or re-encrypted in place). Charged as one comparison,
// like a sort compare-exchange.
func (x *xchg) movePair(t *sim.Coprocessor, region sim.RegionID, i, k int64, move moveFunc) error {
	x.cells(i, k, 1)
	return x.exchange(t, region, func(pts [][]byte) {
		t.ChargeCompare()
		if move(pts[0], pts[1], i, k) {
			pts[0], pts[1] = pts[1], pts[0]
		}
	})
}

// window is the streaming pass that replaces the strides below b. Chunk c
// is the cells [c·b, min((c+1)·b, n)). Top-down it reads the top chunk,
// then for every chunk c from the top reads chunk c−1 and writes chunk c;
// backward (bottom-up) it reads chunk 0, then for every chunk c reads chunk
// c+1 and writes chunk c. Each read cell is placed once inside T (one
// comparison). Each slot of a written chunk takes the real cell placed
// there if T holds one, else the earliest-read cell T still holds.
//
// On a valid input every real cell's slot lies within b−1 slots of its
// position in the direction of travel, so it is held when its chunk is
// written. What T still holds from before the chunk read ahead is then
// chunk c's own size: the reals placed in chunk c and, for the rest,
// non-real cells — at least as many as the slots no real cell takes, and
// read before any cell of the chunk read ahead. So T holds at most 2b
// cells and the result is exact. On any other input the pass still reads
// and writes every cell once, in the same order, and writes a permutation
// of what it read: the schedule is a function of (n, b) alone, and it
// never stops early or fails on content.
func window(t *sim.Coprocessor, region sim.RegionID, n, b int64, backward bool, place placeFunc) error {
	type held struct {
		pt   []byte
		real bool
		slot int64
	}
	var (
		pool []held   // cells inside T, in read order
		free [][]byte // plaintext buffers of written cells, reused by reads
		idx  []int64
		pts  [][]byte
		out  [][]byte
		from []int
		used []bool
	)
	chunks := (n + b - 1) / b
	// chunk returns chunk c's first cell and its index slots.
	chunk := func(c int64) (int64, []int64) {
		idx = idx[:0]
		for i := c * b; i < min((c+1)*b, n); i++ {
			idx = append(idx, i)
		}
		return c * b, idx
	}
	read := func(c int64) error {
		lo, idx := chunk(c)
		k := min(len(free), len(idx))
		pts = append(pts[:0], free[len(free)-k:]...)
		free = free[:len(free)-k]
		var err error
		if pts, err = t.GetBatchInto(pts, region, idx); err != nil {
			return err
		}
		for i, pt := range pts {
			t.ChargeCompare()
			real, slot := place(pt, lo+int64(i))
			pool = append(pool, held{pt, real, slot})
		}
		return nil
	}
	write := func(c int64) error {
		lo, idx := chunk(c)
		hi := lo + int64(len(idx))
		from = from[:0] // from[x]: the held cell slot lo+x takes, −1 until chosen
		for range idx {
			from = append(from, -1)
		}
		used = append(used[:0], make([]bool, len(pool))...)
		for k, h := range pool {
			if h.real && h.slot >= lo && h.slot < hi && from[h.slot-lo] < 0 {
				from[h.slot-lo], used[k] = k, true
			}
		}
		k := 0
		for x := range from {
			for ; from[x] < 0; k++ {
				if !used[k] {
					from[x], used[k] = k, true
				}
			}
		}
		out = out[:0]
		for _, k := range from {
			out = append(out, pool[k].pt)
		}
		kept := pool[:0]
		for k, h := range pool {
			if !used[k] {
				kept = append(kept, h)
			}
		}
		pool = kept
		if err := t.PutBatch(region, idx, out); err != nil {
			return err
		}
		free = append(free, out...)
		return nil
	}

	first, step := chunks-1, int64(-1)
	if backward {
		first, step = 0, 1
	}
	if err := read(first); err != nil {
		return err
	}
	for c := first; c >= 0 && c < chunks; c += step {
		if next := c + step; next >= 0 && next < chunks {
			if err := read(next); err != nil {
				return err
			}
		}
		if err := write(c); err != nil {
			return err
		}
	}
	return nil
}

// DistributeTransfers is the exact transfer count of Distribute over n cells
// in blocks of b, summed over the group: four per routing pair of the
// strides j ≥ b, Σ (n − j) over the powers of two b ≤ j < n, and for b > 1
// the window pass's read and write of every cell:
//
//	4·Σ_{b≤j<n} (n − j) + 2n
//
// At b = 1 the pairs number n·log₂n − (n−1) for n = 2^k.
func DistributeTransfers(n, b int64) int64 {
	if n <= 1 {
		return 0
	}
	var tr int64
	for j := b; j < n; j <<= 1 {
		tr += 4 * (n - j)
	}
	if b > 1 {
		tr += 2 * n
	}
	return tr
}

// CompactTransfers is the exact transfer count of Compact, summed over the
// group: Distribute's — 180,228 at n = 4096 and b = 1, against
// SortTransfers' 557,052, and 106,624 at b = 32.
func CompactTransfers(n, b int64) int64 { return DistributeTransfers(n, b) }

// FillForward performs the duplication half of the oblivious expansion: a
// single forward scan over cells [0, n) during which T retains a copy of
// the most recent real cell ("held") and rewrites every cell through fn.
// For a real cell, held is the cell itself; for a filler cell, held is the
// nearest real cell to its left — fn typically emits a copy of held with an
// adjusted occurrence index. Every cell is read and rewritten exactly once
// (2n transfers), so the pattern is content-independent; the held copy is
// the one tuple of algorithm-visible state, which callers cover with a
// Grant. fn must not retain pt, held, or its return value past the call.
//
// If the first cell is not real there is nothing to duplicate from and
// FillForward fails — expansion inputs always place a real cell at slot 0.
func FillForward(t *sim.Coprocessor, region sim.RegionID, n int64,
	isReal func(pt []byte) bool, fn func(k int64, pt, held []byte) ([]byte, error)) error {
	var held []byte
	return t.TransformRange(region, 0, region, 0, n, func(k int64, pt []byte) ([]byte, error) {
		if isReal(pt) {
			held = append(held[:0], pt...)
		} else if held == nil {
			return nil, fmt.Errorf("oblivious: fill-forward cell %d has no real predecessor", k)
		}
		return fn(k, pt, held)
	})
}

// FillForwardTransfers is the exact transfer count of FillForward.
func FillForwardTransfers(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return 2 * n
}

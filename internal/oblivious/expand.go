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
// rank-preserving compaction). Cells vacated by a move become whatever
// non-real cell previously occupied the destination, so callers interleave
// real cells with uniform "empty" fillers of the same size.
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
// another. Summed transfers: DistributeTransfers(n) at every group size, and
// on one device the order is the sequential one.
func Distribute(cops []*sim.Coprocessor, region sim.RegionID, n int64, route RouteFunc) error {
	return strides(cops, region, n, false, func(lo, _ []byte, _, k int64) bool {
		real, dest := route(lo)
		return real && dest >= k
	})
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
// per pair, whatever the decision: CompactTransfers(n) summed over the
// group, at every group size.
func Compact(cops []*sim.Coprocessor, region sim.RegionID, n int64, route RouteFunc) error {
	return strides(cops, region, n, true, func(_, hi []byte, i, k int64) bool {
		real, rank := route(hi)
		return real && (k-rank)&(k-i) != 0
	})
}

// moveFunc decides inside T, from the decrypted cells of pair (i, k), i < k,
// whether they trade places.
type moveFunc func(lo, hi []byte, i, k int64) bool

// strides runs the pair schedule Distribute and Compact share over the
// cells [0, n) of a region: for every power of two j < n, the pairs (i, i+j)
// with i+j < n, largest stride first and each chain walked top-down, or —
// backward — smallest stride first and each chain walked bottom-up. Within a
// stride, device w walks the pairs with i ≡ w (mod min(P, j)), which are
// whole chains because P and j are powers of two.
func strides(cops []*sim.Coprocessor, region sim.RegionID, n int64, backward bool, move moveFunc) error {
	p, err := groupSize(cops)
	switch {
	case err != nil:
		return err
	case n < 0:
		return fmt.Errorf("oblivious: negative network length %d", n)
	case n <= 1:
		return nil
	}
	xs := make([]xchg, p)
	levels := bits.Len64(uint64(n - 1))
	for s := range levels {
		j := int64(1) << (levels - 1 - s)
		if backward {
			j = int64(1) << s
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
	return nil
}

// movePair performs one pair of the expansion networks: get cells i and k
// (one batched transfer), decide inside T whether they trade places, put
// both back (swapped or re-encrypted in place). Charged as one comparison,
// like a sort compare-exchange.
func (x *xchg) movePair(t *sim.Coprocessor, region sim.RegionID, i, k int64, move moveFunc) error {
	x.idx[0], x.idx[1] = i, k
	var err error
	x.pts, err = t.GetBatchInto(x.pts, region, x.idx[:])
	if err != nil {
		return err
	}
	t.ChargeCompare()
	if move(x.pts[0], x.pts[1], i, k) {
		x.pts[0], x.pts[1] = x.pts[1], x.pts[0]
	}
	return t.PutBatch(region, x.idx[:], x.pts)
}

// DistributePairs is the exact number of pairs Distribute (and Compact)
// executes over n cells: Σ (n − j) over the strides j = 1, 2, 4, … < n,
// which for n = 2^k is n·log₂n − (n−1).
func DistributePairs(n int64) int64 {
	var pairs int64
	for j := int64(1); j < n; j <<= 1 {
		pairs += n - j
	}
	return pairs
}

// DistributeTransfers is the exact transfer count of Distribute, summed over
// the group: four per routing pair.
func DistributeTransfers(n int64) int64 { return 4 * DistributePairs(n) }

// CompactTransfers is the exact transfer count of Compact, summed over the
// group: four per pair of Distribute's schedule — 180,228 at n = 4096,
// against SortTransfers' 557,052.
func CompactTransfers(n int64) int64 { return DistributeTransfers(n) }

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

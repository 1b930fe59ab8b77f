package core

import (
	"fmt"

	"ppj/internal/oblivious"
	"ppj/internal/relation"
	"ppj/internal/sim"
)

// Join5 runs Algorithm 5 (§5.3.2), the J-way general join for secure
// coprocessors with larger memory M. T holds a block of K rows of X₁ (the
// block rule, join5Block, picks K from the table sizes and M alone) and
// scans the L iTuples of D in the fixed blocked order of sim.Cartesian.Scan
// ⌈S/(M−K+1)⌉ times: the cached X₁ row is §5.2.1's constant iTuple
// allocation, so the block's other K−1 rows leave M−K+1 result slots.
// During a scan T stores in its memory the join results ranked after the
// last result flushed in the previous scan (the thesis's pindex, kept as a
// rank), up to M−K+1 of them, and flushes them only at the end of the scan
// — flushing mid-scan would reveal how many results lie in a prefix of D
// (§5.3.2), which is why the thesis's security proof prescribes
// scan-boundary flushes even though its pseudocode writes eagerly. The flush
// sizes are M−K+1, …, S−(scans−1)(M−K+1): a function of (L, S, M, K), all
// public, so the access pattern reveals nothing beyond the public sizes.
// The output holds exactly the S real results; no oblivious sort or random
// access is needed (§5.3.4: "ease of implementation").
func Join5(t *sim.Coprocessor, tables []sim.Table, pred relation.MultiPredicate) (Result, error) {
	return ParallelJoin5([]*sim.Coprocessor{t}, tables, pred)
}

// ParallelJoin5 runs Algorithm 5 over P coprocessors (§5.3.5): device i
// outputs the results ranked [i·blk, (i+1)·blk) in the fixed order, blk =
// ⌈S/P⌉, scanning D ⌈blk/(M−K+1)⌉ times. S is learnt by device 0's first
// scan, which counts every result while it stores its first M−K+1; its
// scan-boundary flush then knows its window, and the other devices start.
// Every device blocks its scans with the same K, so all read the iTuples in
// the same order; each device's flush schedule depends only on
// (L, S, M, K, P). On one device the window is [0, S): the sequential
// algorithm itself, not a costlier cousin.
func ParallelJoin5(cops []*sim.Coprocessor, tables []sim.Table, pred relation.MultiPredicate) (Result, error) {
	if len(cops) == 0 {
		return Result{}, fmt.Errorf("%w: no coprocessors", errInvalid)
	}
	sizes := make([]int64, len(tables))
	for j, tab := range tables {
		sizes[j] = tab.N
	}
	// The smallest device memory sizes the block, so every device keeps at
	// least one result slot.
	m := cops[0].Memory()
	for _, c := range cops {
		m = min(m, c.Memory())
	}
	k := join5Block(sizes, int64(m))
	outSchema, cart, err := prepCh5(cops[0], tables, pred, k)
	if err != nil {
		return Result{}, err
	}
	release, err := cops[0].Grant(cops[0].Memory())
	if err != nil {
		return Result{}, fmt.Errorf("core: algorithm 5: %w", err)
	}
	defer release()
	for _, c := range cops {
		c.ResetStats()
	}

	first, s, err := rankScan(cops[0], cart, pred, 0)
	if err != nil {
		return Result{}, err
	}
	out := cops[0].Host().FreshRegion("alg5.out", int(s))
	p := int64(len(cops))
	blk := (s + p - 1) / p
	if err := oblivious.ForEach(p, func(w int64) error {
		lo, hi := w*blk, min64((w+1)*blk, s)
		if w == 0 {
			return flushRanks(cops[0], cart, pred, out, lo, hi, first)
		}
		if lo >= hi {
			return nil
		}
		cart, err := sim.NewCartesian(cops[w], tables, k)
		if err != nil {
			return err
		}
		release, err := cops[w].Grant(cops[w].Memory())
		if err != nil {
			return fmt.Errorf("core: algorithm 5: %w", err)
		}
		defer release()
		return flushRanks(cops[w], cart, pred, out, lo, hi, nil)
	}); err != nil {
		return Result{}, err
	}
	return Result{
		Output:    sim.Table{Region: out, N: s, Schema: outSchema},
		OutputLen: s,
		Stats:     sumStats(cops),
	}, nil
}

// rankScan is Algorithm 5's scan: one Scan of D that stores the results
// ranked [from, from+M−K+1) in T's memory (Granted by the caller, K−1 of it
// holding the view's block) and counts all S of them.
func rankScan(t *sim.Coprocessor, cart *sim.Cartesian, pred relation.MultiPredicate,
	from int64) (stored [][]byte, s int64, err error) {
	slots := int64(t.Memory()) - (cart.Block() - 1)
	// At most L results exist: an unbounded device's M is 2⁴⁰.
	stored = make([][]byte, 0, min(slots, cart.Size()))
	err = cart.Scan(pred, func(row []relation.Row) {
		if s >= from && int64(len(stored)) < slots {
			stored = append(stored, realCell(row...))
		}
		s++
	})
	if err != nil {
		return nil, 0, err
	}
	return stored, s, nil
}

// flushRanks writes the results ranked [lo, hi) to their slots of out,
// M−K+1 per scan of D and only at scan boundaries, rescanning until the
// window is done. stored is a scan already made from rank lo, nil to start
// with one; hi must not exceed S. Algorithm 6's blemish salvage runs it over
// [0, S).
func flushRanks(t *sim.Coprocessor, cart *sim.Cartesian, pred relation.MultiPredicate,
	out sim.RegionID, lo, hi int64, stored [][]byte) error {
	for next := lo; ; stored = nil {
		if stored == nil {
			var err error
			if stored, _, err = rankScan(t, cart, pred, next); err != nil {
				return err
			}
		}
		if rest := hi - next; int64(len(stored)) > rest {
			stored = stored[:rest]
		}
		// Flush at the scan boundary only.
		if err := t.PutRange(out, next, stored); err != nil {
			return err
		}
		if len(stored) > 0 {
			if err := t.RequestDisk(out, next, int64(len(stored))); err != nil {
				return err
			}
		}
		next += int64(len(stored))
		if next >= hi || len(stored) == 0 {
			return nil
		}
	}
}

// Join5Transfers is the exact transfer count of this implementation on one
// device, the measured analogue of Eqn 5.3: S puts, and the gets of
// ⌈S/(M−K+1)⌉ scans (at least one) in blocks of K rows of X₁ (blockGets).
// In logical reads a scan is L, as in Eqn 5.3, but blocking may double the
// scan count: the block rule keeps K > 1 only where the gets still fall. A
// fleet of P devices runs Σᵢ ⌈blkᵢ/(M−K+1)⌉ scans (at least one) instead.
func Join5Transfers(sizes []int64, s, m int64) int64 {
	k := join5Block(sizes, m)
	return blockGets(sizes, k, join5Scans(s, m-k+1)) + s
}

// join5Block is Algorithm 5's block size K, a function of the table sizes
// and M alone: K = min(⌊M/2⌋, |X₁|) when blocking at least halves the gets
// of one scan, else 1. With K ≤ ⌊M/2⌋ the M−K+1 result slots are more than
// half of M, so the scan count at most doubles, and the rule keeps every
// blocked count at or below the one-row view's ⌈S/M⌉ scans.
func join5Block(sizes []int64, m int64) int64 {
	if len(sizes) == 0 {
		return 1
	}
	k := min(m/2, sizes[0])
	if k < 2 || 2*blockGets(sizes, k, 1) > blockGets(sizes, 1, 1) {
		return 1
	}
	return k
}

// blockGets is the gets of the given number of Scans of D in blocks of k
// rows of X₁: X₁ once per scan, or once in all when a single block spans
// it (the block stays in T), and the rows of X₂ × … × X_J once per block
// per scan under scanGets's one-row rule. At k = 1 it is scanGets.
func blockGets(sizes []int64, k, scans int64) int64 {
	blocks := (sizes[0] + k - 1) / k
	x1 := sizes[0]
	if blocks > 1 {
		x1 *= scans
	}
	tail, _ := scanGets(sizes[1:], scans*blocks)
	return x1 + tail
}

// scanGets is the gets of the given number of fixed-order scans of
// D = X₁×…×X_J on one device, scans·Σ_{j: |Xⱼ|>1} ∏ᵢ≤ⱼ |Xᵢ| + #{j: |Xⱼ| = 1}:
// the Cartesian view keeps each table's current row and fetches table j
// only when its coordinate changes, once per combination of tables 1..j in
// every scan, except that a one-row table's coordinate never changes and
// its row is fetched once. l is L = |D|.
func scanGets(sizes []int64, scans int64) (gets, l int64) {
	l = 1
	for _, n := range sizes {
		l *= n
		if n == 1 {
			gets++
		} else {
			gets += scans * l
		}
	}
	return gets, l
}

// join5Scans is the scan count ⌈S/slots⌉ (minimum 1).
func join5Scans(s, slots int64) int64 {
	return max((s+slots-1)/slots, 1)
}

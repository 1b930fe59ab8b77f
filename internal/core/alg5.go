package core

import (
	"fmt"

	"ppj/internal/oblivious"
	"ppj/internal/relation"
	"ppj/internal/sim"
)

// Join5 runs Algorithm 5 (§5.3.2), the J-way general join for secure
// coprocessors with larger memory M. T scans the L iTuples of D in a fixed
// order ⌈S/M⌉ times. During a scan it stores in its memory the join results
// ranked after the last result flushed in the previous scan (the thesis's
// pindex, kept as a rank), up to M of them, and flushes them only at
// the end of the scan — flushing mid-scan would reveal how many results lie
// in a prefix of D (§5.3.2), which is why the thesis's security proof
// prescribes scan-boundary flushes even though its pseudocode writes
// eagerly. The flush sizes are M, M, …, S−(⌈S/M⌉−1)M: a function of
// (L, S, M) alone, so the access pattern reveals nothing beyond the public
// sizes. The output holds exactly the S real results; no oblivious sort or
// random access is needed (§5.3.4: "ease of implementation").
func Join5(t *sim.Coprocessor, tables []sim.Table, pred relation.MultiPredicate) (Result, error) {
	return ParallelJoin5([]*sim.Coprocessor{t}, tables, pred)
}

// ParallelJoin5 runs Algorithm 5 over P coprocessors (§5.3.5): device i
// outputs the results ranked [i·blk, (i+1)·blk) in the fixed order, blk =
// ⌈S/P⌉, scanning D ⌈blk/M⌉ times. S is learnt by device 0's first scan,
// which counts every result while it stores its first M; its scan-boundary
// flush then knows its window, and the other devices start. All devices
// read the iTuples in the same order; each device's flush schedule depends
// only on (L, S, M, P). On one device the window is [0, S): the sequential
// algorithm itself, not a costlier cousin.
func ParallelJoin5(cops []*sim.Coprocessor, tables []sim.Table, pred relation.MultiPredicate) (Result, error) {
	if len(cops) == 0 {
		return Result{}, fmt.Errorf("%w: no coprocessors", errInvalid)
	}
	outSchema, cart, err := prepCh5(cops[0], tables)
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

	first, s, err := rankScan(cops[0], cart, outSchema, pred, 0)
	if err != nil {
		return Result{}, err
	}
	out := cops[0].Host().FreshRegion("alg5.out", int(s))
	p := int64(len(cops))
	blk := (s + p - 1) / p
	if err := oblivious.ForEach(p, func(w int64) error {
		lo, hi := w*blk, min64((w+1)*blk, s)
		if w == 0 {
			return flushRanks(cops[0], cart, outSchema, pred, out, lo, hi, first)
		}
		if lo >= hi {
			return nil
		}
		cart, err := sim.NewCartesian(cops[w], tables)
		if err != nil {
			return err
		}
		release, err := cops[w].Grant(cops[w].Memory())
		if err != nil {
			return fmt.Errorf("core: algorithm 5: %w", err)
		}
		defer release()
		return flushRanks(cops[w], cart, outSchema, pred, out, lo, hi, nil)
	}); err != nil {
		return Result{}, err
	}
	return Result{
		Output:    sim.Table{Region: out, N: s, Schema: outSchema},
		OutputLen: s,
		Stats:     sumStats(cops),
	}, nil
}

// rankScan is Algorithm 5's scan: one fixed-order pass over D that stores
// the results ranked [from, from+M) in T's memory (Granted by the caller)
// and counts all S of them.
func rankScan(t *sim.Coprocessor, cart *sim.Cartesian, outSchema *relation.Schema,
	pred relation.MultiPredicate, from int64) (stored [][]byte, s int64, err error) {
	m := t.Memory()
	// At most L results exist: an unbounded device's M is 2⁴⁰.
	stored = make([][]byte, 0, min(int64(m), cart.Size()))
	for i, l := int64(0), cart.Size(); i < l; i++ {
		row, err := cart.Read(i)
		if err != nil {
			return nil, 0, err
		}
		t.ChargePredicate()
		if !pred.Satisfy(row) {
			continue
		}
		if s >= from && len(stored) < m {
			payload, err := joinPayload(outSchema, row...)
			if err != nil {
				return nil, 0, err
			}
			stored = append(stored, wrapReal(payload))
		}
		s++
	}
	return stored, s, nil
}

// flushRanks writes the results ranked [lo, hi) to their slots of out, M
// per scan of D and only at scan boundaries, rescanning until the window is
// done. stored is a scan already made from rank lo, nil to start with one;
// hi must not exceed S. Algorithm 6's blemish salvage runs it over [0, S).
func flushRanks(t *sim.Coprocessor, cart *sim.Cartesian, outSchema *relation.Schema,
	pred relation.MultiPredicate, out sim.RegionID, lo, hi int64, stored [][]byte) error {
	for next := lo; ; stored = nil {
		if stored == nil {
			var err error
			if stored, _, err = rankScan(t, cart, outSchema, pred, next); err != nil {
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
// device, the measured analogue of Eqn 5.3: S + ⌈S/M⌉·L in logical reads;
// the underlying gets of a sequential scan add the cached-outer lower-order
// terms per scan. A fleet of P devices runs Σᵢ ⌈blkᵢ/M⌉ scans (at least
// one) instead of ⌈S/M⌉.
func Join5Transfers(sizes []int64, s, m int64) int64 {
	getsPerScan, _ := scanGets(sizes)
	return Join5Scans(s, m)*getsPerScan + s
}

// scanGets is the gets of one fixed-order scan of D = X₁×…×X_J,
// Σⱼ ∏ᵢ≤ⱼ |Xᵢ|: the Cartesian view keeps each table's current row, so
// table j is fetched once per combination of tables 1..j. l is L = |D|.
func scanGets(sizes []int64) (gets, l int64) {
	l = 1
	for _, n := range sizes {
		l *= n
		gets += l
	}
	return gets, l
}

// Join5Scans exposes the scan count ⌈S/M⌉ (minimum 1).
func Join5Scans(s, m int64) int64 {
	scans := (s + m - 1) / m
	if scans < 1 {
		scans = 1
	}
	return scans
}

package core

import (
	"fmt"

	"ppj/internal/oblivious"
	"ppj/internal/relation"
	"ppj/internal/sim"
)

// This file implements Algorithms 2 and 3 over P coprocessors, the
// parallel variants of §4.4.4 ("both the above algorithms are easy to
// parallelize with a linear speed-up in the number of processors"); on one
// device each is the sequential algorithm (TestSequentialIsParallelAtP1
// pins the trace). Chapter 5's device-group forms (§5.3.5) live in alg4.go
// and alg5.go. All coprocessors must share one sealer and be attached to
// the same host.

// ParallelJoin2 runs Algorithm 2 (§4.4.3), the general join for secure
// coprocessors with larger memories. For every a ∈ A it scans B a total of
// γ = max(1, ⌈N/(M−δ)⌉) times; pass i collects the i-th group of ⌈N/γ⌉
// matching tuples in T's memory and flushes exactly that many oTuples
// (padded with decoys) at the end of the pass. Unlike a blocked nested loop,
// the partitioning is over the matched tuples, not the input (§4.4.3).
//
// delta is the §4.4.3 bookkeeping allowance δ (memory reserved for counters
// and the current input tuples); the usable result buffer is M−delta tuples.
//
// With P coprocessors the outer relation A is partitioned: device p handles
// A rows [p·|A|/P, (p+1)·|A|/P) and writes its fixed-size flushes into a
// disjoint range of the shared output. Every device's access pattern depends
// only on its partition bounds and (|B|, N, M), so the per-device privacy
// guarantee is unchanged.
func ParallelJoin2(cops []*sim.Coprocessor, a, b sim.Table, pred relation.Predicate, n int64, delta int64) (Result, error) {
	if len(cops) == 0 {
		return Result{}, fmt.Errorf("%w: no coprocessors", errInvalid)
	}
	if err := validateCh4(a, b, n); err != nil {
		return Result{}, err
	}
	outSchema, err := outputSchema2(a, b)
	if err != nil {
		return Result{}, err
	}
	// All devices must agree on γ and blk, so they are derived from the
	// minimum memory across the fleet.
	minMem := cops[0].Memory()
	for _, c := range cops {
		if c.Memory() < minMem {
			minMem = c.Memory()
		}
	}
	gamma, blk := passes2(n, int64(minMem), delta)
	if gamma == 0 {
		return Result{}, fmt.Errorf("%w: no memory left after δ=%d", errInvalid, delta)
	}

	host := cops[0].Host()
	out := host.FreshRegion("alg2.out", int(gamma*blk*a.N))
	payloadSize := outSchema.TupleSize()

	p := int64(len(cops))
	if err := oblivious.ForEach(p, func(w int64) error {
		return join2Range(cops[w], a, b, pred, out, int64(payloadSize), w*a.N/p, (w+1)*a.N/p, gamma, blk)
	}); err != nil {
		return Result{}, err
	}
	return Result{
		Output:    sim.Table{Region: out, N: gamma * blk * a.N, Schema: outSchema},
		OutputLen: gamma * blk * a.N,
		Stats:     sumStats(cops),
	}, nil
}

// join2Range is Algorithm 2's inner discipline over A rows [lo, hi),
// writing flushes at the global offsets those rows own.
func join2Range(t *sim.Coprocessor, a, b sim.Table, pred relation.Predicate,
	out sim.RegionID, payloadSize int64, lo, hi, gamma, blk int64) error {
	release, err := t.Grant(int(blk))
	if err != nil {
		return fmt.Errorf("core: algorithm 2: %w", err)
	}
	defer release()
	t.ResetStats()
	for ai := lo; ai < hi; ai++ {
		aR, err := getRow(t, a, ai)
		if err != nil {
			return err
		}
		last := int64(-1) // position of the last matched B tuple
		for pass := int64(0); pass < gamma; pass++ {
			joined := make([][]byte, 0, blk) // lives in T's memory (Granted)
			scanErr := t.ScanRange(b.Region, 0, b.N, func(bi int64, pt []byte) error {
				bR, err := rowOf(b, bi, pt)
				if err != nil {
					return err
				}
				// The predicate is evaluated for every tuple regardless of
				// whether the result can still be stored (Fixed Time).
				t.ChargePredicate()
				matched := pred.Match(aR, bR)
				if bi > last && int64(len(joined)) < blk && matched {
					joined = append(joined, realCell(aR, bR))
					last = bi
				}
				return nil
			})
			if scanErr != nil {
				return scanErr
			}
			// Pad to blk and flush: the output per pass has fixed size.
			for int64(len(joined)) < blk {
				joined = append(joined, wrapDecoy(int(payloadSize)))
			}
			base := ai*gamma*blk + pass*blk
			if err := t.PutRange(out, base, joined); err != nil {
				return err
			}
			if err := t.RequestDisk(out, base, blk); err != nil {
				return err
			}
		}
	}
	return nil
}

// ParallelJoin3 runs Algorithm 3 (§4.5.2), the safe sort-based equijoin. B
// is first obliviously sorted on the join attribute, after which all B
// tuples joining a given a ∈ A occupy at most N consecutive positions. For
// each a, a scratch array of N decoys is written; then for the i-th B tuple,
// T reads scratch[i mod N] and writes back either the join result (on
// match) or a re-encryption of the value just read. Real results are never
// overwritten because they sit in at most N consecutive slots of the
// circular buffer.
//
// preSorted records that the data provider supplied B already sorted on the
// join attribute, skipping the oblivious sort (§4.5.2 cost discussion).
//
// With P coprocessors the sort runs over the largest power-of-two prefix of
// the fleet, then A is partitioned — device p handles A rows
// [p·|A|/P, (p+1)·|A|/P) against its own private scratch ring, writing
// output rows at the global offsets its partition owns. Every device's
// access pattern depends only on its partition bounds and (|B|, N), so the
// per-device privacy guarantee is unchanged.
func ParallelJoin3(cops []*sim.Coprocessor, a, b sim.Table, pred *relation.Equi, n int64, preSorted bool) (Result, error) {
	if len(cops) == 0 {
		return Result{}, fmt.Errorf("%w: no coprocessors", errInvalid)
	}
	if err := validateCh4(a, b, n); err != nil {
		return Result{}, err
	}
	outSchema, err := outputSchema2(a, b)
	if err != nil {
		return Result{}, err
	}
	for _, c := range cops {
		c.ResetStats()
	}

	if !preSorted {
		from, to := b.Schema.Span(pred.KeyIndexB())
		less := func(x, y []byte) bool { return pred.CompareKeys(x[from:to], y[from:to]) < 0 }
		// The sort needs a power-of-two device group: the largest
		// power-of-two prefix of the fleet.
		if err := oblivious.SortSpan(cops[:pow2Prefix(len(cops))], b.Region, 0, b.N, 1, less); err != nil {
			return Result{}, err
		}
	}

	// Regions are allocated here, in device order, so their ids — part of
	// the traced access sequence — never depend on goroutine scheduling.
	host := cops[0].Host()
	p := int64(len(cops))
	scratch := make([]sim.RegionID, p)
	for w := range scratch {
		scratch[w] = host.FreshRegion("alg3.scratch", int(n))
	}
	out := host.FreshRegion("alg3.out", int(n*a.N))
	payloadSize := outSchema.TupleSize()

	if err := oblivious.ForEach(p, func(w int64) error {
		return join3Range(cops[w], a, b, pred, scratch[w], out, int64(payloadSize), n, w*a.N/p, (w+1)*a.N/p)
	}); err != nil {
		return Result{}, err
	}
	return Result{
		Output:    sim.Table{Region: out, N: n * a.N, Schema: outSchema},
		OutputLen: n * a.N,
		Stats:     sumStats(cops),
	}, nil
}

// join3Range is Algorithm 3's inner discipline over A rows [lo, hi) with a
// device-private scratch ring of N cells.
func join3Range(t *sim.Coprocessor, a, b sim.Table, pred *relation.Equi,
	scratch, out sim.RegionID, payloadSize, n, lo, hi int64) error {
	decoy := wrapDecoy(int(payloadSize))
	decoyFill := make([][]byte, n)
	for j := range decoyFill {
		decoyFill[j] = decoy
	}
	for ai := lo; ai < hi; ai++ {
		aR, err := getRow(t, a, ai)
		if err != nil {
			return err
		}
		if err := t.PutRange(scratch, 0, decoyFill); err != nil {
			return err
		}
		i := int64(0)
		for bi := int64(0); bi < b.N; bi++ {
			bR, err := getRow(t, b, bi)
			if err != nil {
				return err
			}
			prev, err := t.Get(scratch, i%n)
			if err != nil {
				return err
			}
			t.ChargePredicate()
			if pred.Match(aR, bR) {
				if err := t.Put(scratch, i%n, realCell(aR, bR)); err != nil {
					return err
				}
			} else {
				// Write back the value just read; semantic security makes the
				// re-encryption indistinguishable from a fresh result.
				if err := t.Put(scratch, i%n, prev); err != nil {
					return err
				}
			}
			i++
		}
		if err := t.RequestCopyOut(out, ai*n, scratch, 0, n); err != nil {
			return err
		}
	}
	return nil
}

// pow2Prefix returns the largest power of two <= n (n >= 1).
func pow2Prefix(n int) int {
	ps := 1
	for ps*2 <= n {
		ps *= 2
	}
	return ps
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

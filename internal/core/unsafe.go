package core

import (
	"fmt"

	"ppj/internal/oblivious"
	"ppj/internal/relation"
	"ppj/internal/sim"
)

// This file implements the join designs the paper shows to be UNSAFE. They
// compute correct results — and their tests prove the adversary extracts
// forbidden information from their access patterns, which is exactly the
// negative result of §3.4 and §4.5.1. They must never be used for real
// joins; they exist so the leak is demonstrable rather than asserted.

// UnsafeNestedLoop is the straightforward adaptation of §3.4.1: T outputs a
// result tuple immediately upon a match. An adversary observing whether an
// output follows each B read learns exactly which pairs joined.
func UnsafeNestedLoop(t *sim.Coprocessor, a, b sim.Table, pred relation.Predicate) (Result, error) {
	outSchema, err := outputSchema2(a, b)
	if err != nil {
		return Result{}, err
	}
	t.ResetStats()

	out := t.Host().FreshRegion("unsafe.nl.out", 0)
	outPos := int64(0)
	for ai := int64(0); ai < a.N; ai++ {
		aR, err := getRow(t, a, ai)
		if err != nil {
			return Result{}, err
		}
		for bi := int64(0); bi < b.N; bi++ {
			bR, err := getRow(t, b, bi)
			if err != nil {
				return Result{}, err
			}
			t.ChargePredicate()
			if pred.Match(aR, bR) {
				// The leak: an output put appears right here, between two B
				// gets, iff the pair matched.
				if err := t.Put(out, outPos, realCell(aR, bR)); err != nil {
					return Result{}, err
				}
				outPos++
			}
		}
	}
	return Result{
		Output:    sim.Table{Region: out, N: outPos, Schema: outSchema},
		OutputLen: outPos,
		Stats:     t.Stats(),
	}, nil
}

// UnsafeBlockedNestedLoop is the "incorrect fix" of §3.4.2: T buffers up to
// blockSize results and flushes the block when full. The adversary can still
// estimate the distribution of matches from the flush positions.
func UnsafeBlockedNestedLoop(t *sim.Coprocessor, a, b sim.Table, pred relation.Predicate, blockSize int) (Result, error) {
	if blockSize <= 0 {
		return Result{}, fmt.Errorf("%w: block size must be positive", errInvalid)
	}
	outSchema, err := outputSchema2(a, b)
	if err != nil {
		return Result{}, err
	}
	release, err := t.Grant(blockSize)
	if err != nil {
		return Result{}, err
	}
	defer release()
	t.ResetStats()

	out := t.Host().FreshRegion("unsafe.blk.out", 0)
	outPos := int64(0)
	var block [][]byte
	flush := func() error {
		for _, cell := range block {
			if err := t.Put(out, outPos, cell); err != nil {
				return err
			}
			outPos++
		}
		block = block[:0]
		return nil
	}
	for ai := int64(0); ai < a.N; ai++ {
		aR, err := getRow(t, a, ai)
		if err != nil {
			return Result{}, err
		}
		for bi := int64(0); bi < b.N; bi++ {
			bR, err := getRow(t, b, bi)
			if err != nil {
				return Result{}, err
			}
			t.ChargePredicate()
			if pred.Match(aR, bR) {
				block = append(block, realCell(aR, bR))
				if len(block) == blockSize {
					if err := flush(); err != nil {
						return Result{}, err
					}
				}
			}
		}
	}
	if err := flush(); err != nil {
		return Result{}, err
	}
	return Result{
		Output:    sim.Table{Region: out, N: outPos, Schema: outSchema},
		OutputLen: outPos,
		Stats:     t.Stats(),
	}, nil
}

// UnsafeSortMergeJoin is the classical sort-merge equijoin adaptation of
// §4.5.1. Both inputs are obliviously sorted (that part is safe); the merge
// phase's pointer movements then reveal the number of matches per tuple:
// "after the third match, when T reads the next tuple from B, it realizes
// that there are no more matches in B for a. Therefore, T will read the
// next tuple from A."
func UnsafeSortMergeJoin(t *sim.Coprocessor, a, b sim.Table, pred *relation.Equi) (Result, error) {
	outSchema, err := outputSchema2(a, b)
	if err != nil {
		return Result{}, err
	}
	t.ResetStats()

	// Oblivious sorts of both inputs (data-independent prelude).
	fromA, toA := a.Schema.Span(pred.KeyIndexA())
	fromB, toB := b.Schema.Span(pred.KeyIndexB())
	lessA := func(x, y []byte) bool { return pred.CompareKeys(x[fromA:toA], y[fromA:toA]) < 0 }
	lessB := func(x, y []byte) bool { return pred.CompareKeys(x[fromB:toB], y[fromB:toB]) < 0 }
	if err := oblivious.Sort(t, a.Region, a.N, lessA); err != nil {
		return Result{}, err
	}
	if err := oblivious.Sort(t, b.Region, b.N, lessB); err != nil {
		return Result{}, err
	}

	out := t.Host().FreshRegion("unsafe.smj.out", 0)
	outPos := int64(0)
	bi := int64(0)
	for ai := int64(0); ai < a.N; ai++ {
		aR, err := getRow(t, a, ai)
		if err != nil {
			return Result{}, err
		}
		// Advance past smaller B tuples; the number of B gets per A tuple is
		// data-dependent — the leak.
		for bi < b.N {
			bR, err := getRow(t, b, bi)
			if err != nil {
				return Result{}, err
			}
			t.ChargePredicate()
			if pred.CompareKeys(bR.Encoded()[fromB:toB], aR.Encoded()[fromA:toA]) >= 0 {
				break
			}
			bi++
		}
		for bj := bi; bj < b.N; bj++ {
			bR, err := getRow(t, b, bj)
			if err != nil {
				return Result{}, err
			}
			t.ChargePredicate()
			if !pred.Match(aR, bR) {
				break
			}
			if err := t.Put(out, outPos, realCell(aR, bR)); err != nil {
				return Result{}, err
			}
			outPos++
		}
	}
	return Result{
		Output:    sim.Table{Region: out, N: outPos, Schema: outSchema},
		OutputLen: outPos,
		Stats:     t.Stats(),
	}, nil
}

// UnsafeGraceHashPartition performs the grace-hash partitioning attempt of
// §4.5.1: A is obliviously shuffled, then hashed into buckets of bucketSize;
// when any bucket fills, all buckets are padded with decoys and flushed.
// The number of tuples read between flushes reveals the skew of the join
// attribute ("one of the buckets will fill up much faster than the rest").
// It returns the bucket region (partitioning only — the paper abandons the
// approach before the join phase).
func UnsafeGraceHashPartition(t *sim.Coprocessor, a sim.Table, keyIdx int, numBuckets, bucketSize int) (sim.Table, error) {
	if numBuckets <= 0 || bucketSize <= 0 {
		return sim.Table{}, fmt.Errorf("%w: bucket shape", errInvalid)
	}
	release, err := t.Grant(numBuckets * bucketSize)
	if err != nil {
		return sim.Table{}, err
	}
	defer release()
	t.ResetStats()

	if err := oblivious.Shuffle(t, a.Region, a.N); err != nil {
		return sim.Table{}, err
	}

	out := t.Host().FreshRegion("unsafe.ghj.buckets", 0)
	outPos := int64(0)
	buckets := make([][][]byte, numBuckets)
	payloadSize := a.Schema.TupleSize()
	flushAll := func() error {
		for bi := range buckets {
			for len(buckets[bi]) < bucketSize {
				buckets[bi] = append(buckets[bi], wrapDecoy(payloadSize))
			}
			for _, cell := range buckets[bi] {
				if err := t.Put(out, outPos, cell); err != nil {
					return err
				}
				outPos++
			}
			buckets[bi] = buckets[bi][:0]
		}
		return nil
	}
	for ai := int64(0); ai < a.N; ai++ {
		aR, err := getRow(t, a, ai)
		if err != nil {
			return sim.Table{}, err
		}
		h := int(uint64(aR.Int(keyIdx)) % uint64(numBuckets))
		buckets[h] = append(buckets[h], realCell(aR))
		if len(buckets[h]) == bucketSize {
			// The leak: this flush position depends on the key distribution.
			if err := flushAll(); err != nil {
				return sim.Table{}, err
			}
		}
	}
	if err := flushAll(); err != nil {
		return sim.Table{}, err
	}
	return sim.Table{Region: out, N: outPos, Schema: a.Schema}, nil
}

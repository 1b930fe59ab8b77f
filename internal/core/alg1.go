package core

import (
	"fmt"

	"ppj/internal/oblivious"
	"ppj/internal/relation"
	"ppj/internal/sim"
)

// Join1 runs Algorithm 1 (§4.4.1), the general join for secure coprocessors
// with small memories. For every a ∈ A it streams B in rounds of N tuples,
// writing one oTuple (a real join or a decoy) per comparison into the second
// half of a 2N-cell scratch array on the host, and obliviously sorting the
// array after every round with real tuples given priority. Because N is the
// maximum number of B tuples joining any a, all real results accumulate in
// the first N cells, which H persists as the output for a. The output is
// therefore exactly N·|A| oTuples, and every host access is a function of
// (|A|, |B|, N) alone.
//
// N must be a correct upper bound on the per-tuple match count
// (relation.MaxMatches computes it exactly; the paper notes a safe N can be
// found by a nested loop pass that outputs nothing, §4.3).
func Join1(t *sim.Coprocessor, a, b sim.Table, pred relation.Predicate, n int64) (Result, error) {
	if err := validateCh4(a, b, n); err != nil {
		return Result{}, err
	}
	outSchema, err := outputSchema2(a, b)
	if err != nil {
		return Result{}, err
	}
	// Algorithm 1 keeps only the current A tuple and the oTuple under
	// construction inside T — the uncharged "+2" staging slots of §4.1.
	// Scratch lives on the host, so no device memory is granted.
	t.ResetStats()

	host := t.Host()
	scratch := host.FreshRegion("alg1.scratch", int(2*n))
	out := host.FreshRegion("alg1.out", int(n*a.N))
	payloadSize := outSchema.TupleSize()

	// One decoy plaintext serves every decoy put; each batched put seals it
	// freshly, so the host still sees independent ciphertexts.
	decoy := wrapDecoy(payloadSize)
	decoyFill := make([][]byte, 2*n)
	for j := range decoyFill {
		decoyFill[j] = decoy
	}

	for ai := int64(0); ai < a.N; ai++ {
		// put 2N encrypted decoy tuples to scratch[].
		if err := t.PutRange(scratch, 0, decoyFill); err != nil {
			return Result{}, err
		}
		aR, err := getRow(t, a, ai)
		if err != nil {
			return Result{}, err
		}
		// Stream B in rounds of up to N tuples: one batched read-modify-write
		// into scratch[N..2N), then the oblivious sort — the same get/put
		// interleaving and sort schedule as the per-cell loop.
		for bi0 := int64(0); bi0 < b.N; bi0 += n {
			cnt := min64(n, b.N-bi0)
			err := t.TransformRange(scratch, n, b.Region, bi0, cnt, func(k int64, pt []byte) ([]byte, error) {
				bR, err := rowOf(b, bi0+k, pt)
				if err != nil {
					return nil, err
				}
				t.ChargePredicate()
				if pred.Match(aR, bR) {
					return realCell(aR, bR), nil
				}
				return decoy, nil
			})
			if err != nil {
				return Result{}, err
			}
			if err := oblivious.Sort(t, scratch, 2*n, oTupleFirst); err != nil {
				return Result{}, err
			}
		}
		// Request H to write the first N cells of scratch[] to disk.
		if err := t.RequestCopyOut(out, ai*n, scratch, 0, n); err != nil {
			return Result{}, err
		}
	}
	return Result{
		Output:    sim.Table{Region: out, N: n * a.N, Schema: outSchema},
		OutputLen: n * a.N,
		Stats:     t.Stats(),
	}, nil
}

// Join1Transfers is the exact transfer count of this implementation of
// Algorithm 1, the measured analogue of the paper's
// |A| + 2N|A| + 2|A||B| + 2|A||B|(log₂ 2N)² (which assumes 2N is a power of
// two and approximates the bitonic network's comparator count; this one
// sorts with odd-even mergesort's fewer).
func Join1Transfers(aN, bN, n int64) int64 {
	sortsPerA := bN / n
	if bN%n != 0 {
		sortsPerA++
	}
	perA := 2*n + // initial decoys
		1 + // get a  (amortised below by multiplying |A|)
		2*bN + // get b + put scratch per B tuple
		sortsPerA*oblivious.SortTransfers(2*n, 1)
	return aN * perA
}

// Join1Variant runs the §4.4.2 variant: for each a ∈ A it writes all |B|
// oTuples to host memory and performs a single oblivious sort of |B| cells,
// keeping the first N. Dominated by Algorithm 1 for small α = N/|B|;
// implemented for the performance-relationship experiments.
func Join1Variant(t *sim.Coprocessor, a, b sim.Table, pred relation.Predicate, n int64) (Result, error) {
	if err := validateCh4(a, b, n); err != nil {
		return Result{}, err
	}
	outSchema, err := outputSchema2(a, b)
	if err != nil {
		return Result{}, err
	}
	t.ResetStats()

	host := t.Host()
	scratch := host.FreshRegion("alg1v.scratch", int(b.N))
	out := host.FreshRegion("alg1v.out", int(n*a.N))
	payloadSize := outSchema.TupleSize()

	decoy := wrapDecoy(payloadSize)
	for ai := int64(0); ai < a.N; ai++ {
		aR, err := getRow(t, a, ai)
		if err != nil {
			return Result{}, err
		}
		err = t.TransformRange(scratch, 0, b.Region, 0, b.N, func(bi int64, pt []byte) ([]byte, error) {
			bR, err := rowOf(b, bi, pt)
			if err != nil {
				return nil, err
			}
			t.ChargePredicate()
			if pred.Match(aR, bR) {
				return realCell(aR, bR), nil
			}
			return decoy, nil
		})
		if err != nil {
			return Result{}, err
		}
		if err := oblivious.Sort(t, scratch, b.N, oTupleFirst); err != nil {
			return Result{}, err
		}
		if err := t.RequestCopyOut(out, ai*n, scratch, 0, n); err != nil {
			return Result{}, err
		}
	}
	return Result{
		Output:    sim.Table{Region: out, N: n * a.N, Schema: outSchema},
		OutputLen: n * a.N,
		Stats:     t.Stats(),
	}, nil
}

func validateCh4(a, b sim.Table, n int64) error {
	if a.N <= 0 || b.N <= 0 {
		return fmt.Errorf("%w: empty input relation", errInvalid)
	}
	if n <= 0 {
		return fmt.Errorf("%w: match bound N must be positive (use relation.MaxMatches, or 1 when no tuple matches)", errInvalid)
	}
	if n > b.N {
		return fmt.Errorf("%w: match bound N=%d exceeds |B|=%d", errInvalid, n, b.N)
	}
	return nil
}

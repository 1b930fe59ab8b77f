package core

import (
	"fmt"

	"ppj/internal/costmodel"
	"ppj/internal/mlfsr"
	"ppj/internal/oblivious"
	"ppj/internal/relation"
	"ppj/internal/sim"
)

// Join6Report extends Result with the parameters Algorithm 6 derived.
type Join6Report struct {
	Result
	// S is the exact join size, found by the screening pass or declared.
	S int64
	// NStar is the optimal segment size n* for the requested ε (Eqn 5.6).
	NStar int64
	// Segments is ⌈L/n*⌉.
	Segments int64
}

// Join6 runs Algorithm 6 (§5.3.3), which trades privacy preserving level
// 1−ε for communication efficiency. A screening pass over D computes the
// exact result size S. If S fits in memory the results recorded during
// screening are flushed directly (cost L+S). Otherwise T derives the
// largest segment size n* whose blemish probability bound P_M(n) stays
// below ε, visits the iTuples in a pseudo-random order generated by a
// maximal-length LFSR seeded inside T (§5.2.3), and flushes exactly M
// oTuples — results collected in the segment, padded with decoys — after
// every n* iTuples. The flushed list is then obliviously filtered down to
// the S real results.
//
// A segment holding more than M results is a blemish (probability ≤ ε by
// construction): T cannot flush them all without breaking the fixed flush
// size. The salvage action — which is what may leak, and why the guarantee
// is 1−ε — re-outputs all results with Algorithm 5's multi-scan discipline;
// the report flags it.
func Join6(t *sim.Coprocessor, tables []sim.Table, pred relation.MultiPredicate, eps float64) (Join6Report, error) {
	return join6(t, tables, pred, eps, -1)
}

// Join6OnePass is Algorithm 6 with S declared rather than screened for. It
// answers a Chapter 6 open question — "Algorithm 6 ... makes two passes
// over the cartesian product of the two input tables. A one pass algorithm
// would dramatically reduce the I/O overhead. Does a one pass algorithm
// exist?" — in the affirmative for the case where the join size S is known
// a priori. Algorithm 6 spends its first pass only to learn S (which sizes
// the flush schedule and the decoy filter); when S is public beforehand —
// fixed by contract, known from a previous run on the same inputs, or
// published by the data owners — the screening pass is skipped once S > M,
// and the cost drops from Eqn 5.7's 2L + … to L + …. When S ≤ M the
// screening pass is the whole join, as in Join6.
//
// A declared S that differs from the true join size is detected — by the
// screening pass when S ≤ M, by the segmented pass's count otherwise — and
// refused rather than emitting a wrong or leaky result. The access pattern
// is a function of (L, knownS, M, ε).
func Join6OnePass(t *sim.Coprocessor, tables []sim.Table, pred relation.MultiPredicate, eps float64, knownS int64) (Join6Report, error) {
	if knownS < 0 {
		return Join6Report{}, fmt.Errorf("%w: negative S", errInvalid)
	}
	return join6(t, tables, pred, eps, knownS)
}

// join6 is Algorithm 6 with S screened for (declared < 0) or declared.
func join6(t *sim.Coprocessor, tables []sim.Table, pred relation.MultiPredicate, eps float64, declared int64) (Join6Report, error) {
	if !(eps >= 0 && eps <= 1) {
		return Join6Report{}, fmt.Errorf("%w: epsilon %g outside [0,1]", errInvalid, eps)
	}
	outSchema, cart, err := prepCh5(t, tables)
	if err != nil {
		return Join6Report{}, err
	}
	m := int64(t.Memory())
	release, err := t.Grant(t.Memory())
	if err != nil {
		return Join6Report{}, fmt.Errorf("core: algorithm 6: %w", err)
	}
	defer release()
	t.ResetStats()

	host := t.Host()
	l := cart.Size()
	out := host.FreshRegion("alg6.out", 0)
	report := func(s, nStar, segments int64, blemished bool) Join6Report {
		return Join6Report{
			Result: Result{
				Output:    sim.Table{Region: out, N: s, Schema: outSchema},
				OutputLen: s,
				Stats:     t.Stats(),
				Blemished: blemished,
			},
			S: s, NStar: nStar, Segments: segments,
		}
	}
	wrongS := func(s int64) error {
		return fmt.Errorf("core: algorithm 6: join has %d results, declared S=%d", s, declared)
	}

	// Screening pass: Algorithm 5's scan from rank 0 counts S and keeps the
	// first M results, so when S ≤ M it is the whole join (§5.3.3
	// footnote). Only a declared S > M skips it, and the segmented pass
	// below checks that declaration instead.
	s := declared
	if declared <= m {
		first, screened, err := rankScan(t, cart, outSchema, pred, 0)
		if err != nil {
			return Join6Report{}, err
		}
		if declared >= 0 && screened != declared {
			return Join6Report{}, wrongS(screened)
		}
		s = screened
		if s <= m {
			if err := flushRanks(t, cart, outSchema, pred, out, 0, s, first); err != nil {
				return Join6Report{}, err
			}
			return report(s, l, 1, false), nil
		}
	}

	nStar := max(costmodel.OptimalSegment(l, s, m, eps), 1)
	segments := (l + nStar - 1) / nStar

	// Processing pass in LFSR-random order, flushing M oTuples per segment.
	perm, err := mlfsr.NewPermutation(uint64(l), t.Rand().Uint64())
	if err != nil {
		return Join6Report{}, err
	}
	raw := host.FreshRegion("alg6.raw", int(segments*m))
	payloadSize := outSchema.TupleSize()
	buf := make([][]byte, 0, m)
	var found, rawPos int64
	blemished := false
	for k := int64(0); k < l; k++ {
		idx, ok := perm.Next()
		if !ok {
			return Join6Report{}, fmt.Errorf("core: algorithm 6: permutation exhausted at %d of %d", k, l)
		}
		row, err := cart.Read(int64(idx))
		if err != nil {
			return Join6Report{}, err
		}
		t.ChargePredicate()
		if pred.Satisfy(row) {
			found++
			if int64(len(buf)) < m {
				payload, err := joinPayload(outSchema, row...)
				if err != nil {
					return Join6Report{}, err
				}
				buf = append(buf, wrapReal(payload))
			} else {
				// Blemish: this segment produced more than M results.
				blemished = true
			}
		}
		if (k+1)%nStar == 0 || k+1 == l {
			for int64(len(buf)) < m {
				buf = append(buf, wrapDecoy(payloadSize))
			}
			if err := t.PutRange(raw, rawPos, buf); err != nil {
				return Join6Report{}, err
			}
			rawPos += m
			buf = buf[:0]
		}
	}
	if found != s {
		return Join6Report{}, wrongS(found)
	}

	if blemished {
		// Salvage (§5.3.3): re-output every result with Algorithm 5's
		// multi-scan discipline. This is the ε-probability event whose
		// access pattern may leak; the report says so.
		if err := flushRanks(t, cart, outSchema, pred, out, 0, s, nil); err != nil {
			return Join6Report{}, err
		}
		return report(s, nStar, segments, true), nil
	}
	filtered, err := filterDecoys([]*sim.Coprocessor{t}, raw, rawPos, s, "alg6.kept")
	if err != nil {
		return Join6Report{}, err
	}
	if err := t.RequestCopyOut(out, 0, filtered, 0, s); err != nil {
		return Join6Report{}, err
	}
	return report(s, nStar, segments, false), nil
}

// Join6Transfers is the exact transfer count of the non-blemished path of
// this implementation when S ≤ M, and an upper bound once S > M:
// random-order reads fetch up to every table per iTuple.
func Join6Transfers(sizes []int64, s, m int64, eps float64) int64 {
	seqGets, l := scanGets(sizes, 1)
	if s <= m {
		return seqGets + s
	}
	nStar := costmodel.OptimalSegment(l, s, m, eps)
	segments := (l + nStar - 1) / nStar
	omega := segments * m
	// Screening (sequential) + processing (random order: up to J gets per
	// logical read; exact count depends on the permutation's coordinate
	// reuse, so this function assumes the worst case of J gets each).
	total := seqGets + l*int64(len(sizes)) + omega
	if omega > s {
		total += oblivious.FilterTransfers(omega, s, oblivious.ChooseDelta(omega, s))
	}
	return total
}

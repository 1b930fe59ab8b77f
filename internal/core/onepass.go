package core

import (
	"fmt"

	"ppj/internal/costmodel"
	"ppj/internal/mlfsr"
	"ppj/internal/sim"

	"ppj/internal/relation"
)

// Join6OnePass answers a Chapter 6 open question — "Algorithm 6 ... makes
// two passes over the cartesian product of the two input tables. A one pass
// algorithm would dramatically reduce the I/O overhead. Does a one pass
// algorithm exist?" — in the affirmative for the case where the join size S
// is known a priori. Algorithm 6 spends its first pass only to learn S
// (which sizes the flush schedule and the decoy filter); when S is public
// beforehand — fixed by contract, known from a previous run on the same
// inputs, or published by the data owners — the screening pass is
// unnecessary and the cost drops from Eqn 5.7's 2L + … to L + ….
//
// If knownS understates the true join size the coprocessor detects it (the
// segment buffers or the final accounting overflow) and returns an error
// rather than emitting a wrong or leaky result; overstating S costs only
// extra decoys. The access pattern is a function of (L, knownS, M, ε).
func Join6OnePass(t *sim.Coprocessor, tables []sim.Table, pred relation.MultiPredicate, eps float64, knownS int64) (Join6Report, error) {
	if eps < 0 || eps > 1 {
		return Join6Report{}, fmt.Errorf("%w: epsilon %g outside [0,1]", errInvalid, eps)
	}
	if knownS < 0 {
		return Join6Report{}, fmt.Errorf("%w: negative S", errInvalid)
	}
	outSchema, cart, err := prepCh5(t, tables)
	if err != nil {
		return Join6Report{}, err
	}
	m := int64(t.Memory())
	release, err := t.Grant(t.Memory())
	if err != nil {
		return Join6Report{}, fmt.Errorf("core: one-pass algorithm 6: %w", err)
	}
	defer release()
	t.ResetStats()

	host := t.Host()
	l := cart.Size()
	out := host.FreshRegion("alg6op.out", 0)
	payloadSize := outSchema.TupleSize()

	// M >= S: collect everything in one sequential pass.
	if knownS <= m {
		collected := make([][]byte, 0, knownS)
		var seen int64
		for i := int64(0); i < l; i++ {
			row, err := cart.Read(i)
			if err != nil {
				return Join6Report{}, err
			}
			t.ChargePredicate()
			if pred.Satisfy(row) {
				seen++
				if seen > knownS {
					return Join6Report{}, fmt.Errorf("core: one-pass algorithm 6: join exceeds declared S=%d", knownS)
				}
				payload, err := joinPayload(outSchema, row...)
				if err != nil {
					return Join6Report{}, err
				}
				collected = append(collected, wrapReal(payload))
			}
		}
		if seen != knownS {
			return Join6Report{}, fmt.Errorf("core: one-pass algorithm 6: join has %d results, declared S=%d", seen, knownS)
		}
		for i, cell := range collected {
			if err := t.Put(out, int64(i), cell); err != nil {
				return Join6Report{}, err
			}
		}
		if knownS > 0 {
			if err := t.RequestDisk(out, 0, knownS); err != nil {
				return Join6Report{}, err
			}
		}
		return Join6Report{
			Result: Result{
				Output:    sim.Table{Region: out, N: knownS, Schema: outSchema},
				OutputLen: knownS,
				Stats:     t.Stats(),
			},
			S: knownS, NStar: l, Segments: 1,
		}, nil
	}

	nStar := costmodel.OptimalSegment(l, knownS, m, eps)
	if nStar < 1 {
		nStar = 1
	}
	segments := (l + nStar - 1) / nStar

	perm, err := mlfsr.NewPermutation(uint64(l), t.Rand().Uint64())
	if err != nil {
		return Join6Report{}, err
	}
	raw := host.FreshRegion("alg6op.raw", int(segments*m))
	buf := make([][]byte, 0, m)
	blemished := false
	rawPos := int64(0)
	var total int64
	flush := func() error {
		for _, cell := range buf {
			if err := t.Put(raw, rawPos, cell); err != nil {
				return err
			}
			rawPos++
		}
		for j := int64(len(buf)); j < m; j++ {
			if err := t.Put(raw, rawPos, wrapDecoy(payloadSize)); err != nil {
				return err
			}
			rawPos++
		}
		buf = buf[:0]
		return nil
	}
	for k := int64(0); k < l; k++ {
		idx, ok := perm.Next()
		if !ok {
			return Join6Report{}, fmt.Errorf("core: one-pass algorithm 6: permutation exhausted")
		}
		row, err := cart.Read(int64(idx))
		if err != nil {
			return Join6Report{}, err
		}
		t.ChargePredicate()
		if pred.Satisfy(row) {
			total++
			if int64(len(buf)) < m {
				payload, err := joinPayload(outSchema, row...)
				if err != nil {
					return Join6Report{}, err
				}
				buf = append(buf, wrapReal(payload))
			} else {
				blemished = true
			}
		}
		if (k+1)%nStar == 0 || k+1 == l {
			if err := flush(); err != nil {
				return Join6Report{}, err
			}
		}
	}
	if total != knownS {
		return Join6Report{}, fmt.Errorf("core: one-pass algorithm 6: join has %d results, declared S=%d", total, knownS)
	}
	if blemished {
		// Salvage still needs the rescans; one-pass only holds on the
		// 1−ε-probability clean path.
		if err := flushRanks(t, cart, outSchema, pred, out, 0, knownS, nil); err != nil {
			return Join6Report{}, err
		}
		return Join6Report{
			Result: Result{
				Output:    sim.Table{Region: out, N: knownS, Schema: outSchema},
				OutputLen: knownS,
				Stats:     t.Stats(),
				Blemished: true,
			},
			S: knownS, NStar: nStar, Segments: segments,
		}, nil
	}
	filtered, err := filterDecoys([]*sim.Coprocessor{t}, raw, rawPos, knownS, "alg6op.kept")
	if err != nil {
		return Join6Report{}, err
	}
	if err := t.RequestCopyOut(out, 0, filtered, 0, knownS); err != nil {
		return Join6Report{}, err
	}
	return Join6Report{
		Result: Result{
			Output:    sim.Table{Region: out, N: knownS, Schema: outSchema},
			OutputLen: knownS,
			Stats:     t.Stats(),
		},
		S: knownS, NStar: nStar, Segments: segments,
	}, nil
}

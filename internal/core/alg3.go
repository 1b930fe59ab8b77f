package core

import (
	"ppj/internal/oblivious"
	"ppj/internal/relation"
	"ppj/internal/sim"
)

// Join3 runs Algorithm 3 (§4.5.2), the safe sort-based equijoin. B is first
// obliviously sorted on the join attribute, after which all B tuples joining
// a given a ∈ A occupy at most N consecutive positions. For each a, a
// scratch array of N decoys is written; then for the i-th B tuple, T reads
// scratch[i mod N] and writes back either the join result (on match) or a
// re-encryption of the value just read. Real results are never overwritten
// because they sit in at most N consecutive slots of the circular buffer.
//
// preSorted records that the data provider supplied B already sorted on the
// join attribute, skipping the oblivious sort (§4.5.2 cost discussion).
//
// The sequential algorithm is the parallel one on a single device
// (TestSequentialIsParallelAtP1 pins the trace).
func Join3(t *sim.Coprocessor, a, b sim.Table, pred *relation.Equi, n int64, preSorted bool) (Result, error) {
	return ParallelJoin3([]*sim.Coprocessor{t}, a, b, pred, n, preSorted)
}

// Join3Transfers is the exact transfer count of this implementation, the
// measured analogue of |A| + |A|N + |B|(log₂|B|)² + 3|A||B|.
func Join3Transfers(aN, bN, n int64, preSorted bool) int64 {
	total := aN * (1 + n + 3*bN)
	if !preSorted {
		total += oblivious.SortTransfers(bN, 1)
	}
	return total
}

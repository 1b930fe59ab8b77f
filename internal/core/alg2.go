package core

import (
	"ppj/internal/relation"
	"ppj/internal/sim"
)

// Join2 runs Algorithm 2 (§4.4.3), the general join for secure coprocessors
// with larger memories. For every a ∈ A it scans B a total of
// γ = max(1, ⌈N/(M−δ)⌉) times; pass i collects the i-th group of ⌈N/γ⌉
// matching tuples in T's memory and flushes exactly that many oTuples
// (padded with decoys) at the end of the pass. Unlike a blocked nested loop,
// the partitioning is over the matched tuples, not the input (§4.4.3).
//
// delta is the §4.4.3 bookkeeping allowance δ (memory reserved for counters
// and the current input tuples); the usable result buffer is M−delta tuples.
//
// The sequential algorithm is the parallel one on a single device: one
// partition covering all of A (TestSequentialIsParallelAtP1 pins the trace).
func Join2(t *sim.Coprocessor, a, b sim.Table, pred relation.Predicate, n int64, delta int64) (Result, error) {
	return ParallelJoin2([]*sim.Coprocessor{t}, a, b, pred, n, delta)
}

// Join2Transfers is the exact transfer count of this implementation:
// |A|·(1 + γ·|B| + γ·blk), the measured analogue of the paper's
// |A| + N|A| + γ|A||B| (which writes γ·blk ≈ N).
func Join2Transfers(aN, bN, n, m, delta int64) int64 {
	usable := m - delta
	gamma := (n + usable - 1) / usable
	if gamma < 1 {
		gamma = 1
	}
	blk := (n + gamma - 1) / gamma
	return aN * (1 + gamma*bN + gamma*blk)
}

// Gamma2 exposes the pass count Algorithm 2 would use for a given N, M, δ.
func Gamma2(n, m, delta int64) int64 {
	usable := m - delta
	if usable < 1 {
		return 0
	}
	g := (n + usable - 1) / usable
	if g < 1 {
		g = 1
	}
	return g
}

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
// |A| + N|A| + γ|A||B| (which writes γ·blk ≈ N). It is 0 when M ≤ δ, a run
// Algorithm 2 refuses.
func Join2Transfers(aN, bN, n, m, delta int64) int64 {
	gamma, blk := passes2(n, m, delta)
	if gamma == 0 {
		return 0
	}
	return aN * (1 + gamma*bN + gamma*blk)
}

// Gamma2 exposes the pass count Algorithm 2 would use for a given N, M, δ.
func Gamma2(n, m, delta int64) int64 {
	gamma, _ := passes2(n, m, delta)
	return gamma
}

// passes2 is Algorithm 2's schedule: γ = max(1, ⌈N/(M−δ)⌉) passes over B
// per a ∈ A, each flushing blk = ⌈N/γ⌉ oTuples. Both are 0 when δ leaves no
// result buffer (M ≤ δ).
func passes2(n, m, delta int64) (gamma, blk int64) {
	usable := m - delta
	if usable < 1 {
		return 0, 0
	}
	gamma = max(1, (n+usable-1)/usable)
	return gamma, (n + gamma - 1) / gamma
}

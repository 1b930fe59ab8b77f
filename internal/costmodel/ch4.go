// Package costmodel evaluates the closed-form cost expressions the paper's
// performance analysis is built on: the Chapter 4 algorithm costs and their
// Figure 4.1 performance-relationship regions, the §4.6.5 secure-function-
// evaluation comparison, the Chapter 5 algorithm costs with the optimal swap
// size Δ* (Eqn 5.1) and segment size n* (Eqn 5.6), the hypergeometric
// blemish probabilities (Eqns 5.4/5.5), and the reference SMC cost (Eqn
// 5.8). Every table and figure of the evaluation sections is a rendering of
// these functions; the simulator's measured counters validate them at
// reduced scale.
//
// These are the thesis's formulas, not the implementation's counts: they
// are read by ppjbench's figures, tables, ablation and validate and by the
// root package's Cost* re-exports. Nothing on the serving path prices a
// join with them — the query planner ranks core.Algorithms by each row's
// exact Transfers — and the only serving-path caller is Algorithm 6, which
// takes its segment size n* (Eqn 5.6) from OptimalSegment.
package costmodel

import (
	"math"
	"math/bits"
)

// log2 is the binary logarithm used throughout the paper's formulas.
func log2(x float64) float64 { return math.Log2(x) }

// Gamma computes γ = max(1, ⌈N/(M−δ)⌉), the number of passes over B that
// Algorithm 2 makes per tuple of A (§4.4.3). δ, the bookkeeping allowance,
// is taken as 0 like in the §4.6 analysis.
func Gamma(n, m int64) int64 {
	if m <= 0 {
		panic("costmodel: memory must be positive")
	}
	g := (n + m - 1) / m
	if g < 1 {
		g = 1
	}
	return g
}

// Alg1Cost is the tuple-transfer cost of Algorithm 1 (general join, small
// memory, §4.4.1): |A| + 2N|A| + 2|A||B| + 2|A||B|(log₂(2N))².
func Alg1Cost(a, b, n int64) float64 {
	af, bf, nf := float64(a), float64(b), float64(n)
	return af + 2*nf*af + 2*af*bf + 2*af*bf*sq(log2(2*nf))
}

// Alg1VariantCost is the §4.4.2 variant that sorts all |B| outputs per A
// tuple instead of using scratch rounds: |A| + 2|A||B| + |A||B|(log₂|B|)².
func Alg1VariantCost(a, b int64) float64 {
	af, bf := float64(a), float64(b)
	return af + 2*af*bf + af*bf*sq(log2(bf))
}

// Alg2Cost is the tuple-transfer cost of Algorithm 2 (general join, larger
// memory, §4.4.3): |A| + N|A| + γ|A||B|.
func Alg2Cost(a, b, n, m int64) float64 {
	af, bf, nf := float64(a), float64(b), float64(n)
	return af + nf*af + float64(Gamma(n, m))*af*bf
}

// Alg3Cost is the tuple-transfer cost of Algorithm 3 (sort-based equijoin,
// §4.5.2): |A| + |A|N + |B|(log₂|B|)² + 3|A||B|. With preSorted, the data
// providers supplied sorted relations and the oblivious sort of B is
// skipped.
func Alg3Cost(a, b, n int64, preSorted bool) float64 {
	af, bf, nf := float64(a), float64(b), float64(n)
	c := af + af*nf + 3*af*bf
	if !preSorted {
		c += bf * sq(log2(bf))
	}
	return c
}

// Ch4Costs evaluates the three §4.6 rewritten cost formulas for |A| = |B|,
// parameterised by α = N/|B| and γ = ⌈N/M⌉.
//
//	Algorithm 1: |B| + 2|B|² + 2α|B|² + 2|B|²(log₂ 2α|B|)²
//	Algorithm 2: |B| + α|B|² + γ|B|²
//	Algorithm 3: |B| + 3|B|² + α|B|² + |B|(log₂|B|)²
func Ch4Costs(b int64, alpha float64, gamma int64) (c1, c2, c3 float64) {
	bf := float64(b)
	c1 = bf + 2*bf*bf + 2*alpha*bf*bf + 2*bf*bf*sq(log2(2*alpha*bf))
	c2 = bf + alpha*bf*bf + float64(gamma)*bf*bf
	c3 = bf + 3*bf*bf + alpha*bf*bf + bf*sq(log2(bf))
	return
}

// Winner identifies the cheapest Chapter 4 algorithm for the Figure 4.1
// performance-relationship map. equijoin selects whether Algorithm 3 (which
// only handles equality predicates) participates.
func Winner(b int64, alpha float64, gamma int64, equijoin bool) string {
	c1, c2, c3 := Ch4Costs(b, alpha, gamma)
	best, name := c1, "Alg1"
	if c2 < best {
		best, name = c2, "Alg2"
	}
	if equijoin && c3 < best {
		name = "Alg3"
	}
	return name
}

// SFEParams are the secure-circuit-evaluation parameters of §4.6.5, with the
// paper's minimum practical values as defaults (k₀=64, k₁=100, l=n=50).
type SFEParams struct {
	K0 int64 // supplemental key bits k₀
	K1 int64 // oblivious-transfer security parameter k₁
	L  int64 // cheating probability exponent for P_A
	N  int64 // cheating probability exponent for P_B
}

// DefaultSFEParams returns the §4.6.5 minimums.
func DefaultSFEParams() SFEParams { return SFEParams{K0: 64, K1: 100, L: 50, N: 50} }

// SFECostBits is the §4.6.5 communication cost of secure function
// evaluation for a general join of two w-bit-tuple relations of size |B|
// with match bound N, in bits:
//
//	8·l·k₀·|B|²·Ge(w) + 32·l·k₁·(|B|·w) + 2·n·l·N·k₁·(|B|·w)
//
// with Ge(w) = 2w (the L1-norm matching circuit lower bound).
func SFECostBits(p SFEParams, b, n, w int64) float64 {
	bf, nf, wf := float64(b), float64(n), float64(w)
	ge := 2 * wf
	return 8*float64(p.L)*float64(p.K0)*bf*bf*ge +
		32*float64(p.L)*float64(p.K1)*bf*wf +
		2*float64(p.N)*float64(p.L)*nf*float64(p.K1)*bf*wf
}

// Alg1CostBits converts Algorithm 1's tuple-transfer cost to bits for the
// §4.6.5 comparison ("we multiply the cost formula for Algorithm 1 with w").
func Alg1CostBits(a, b, n, w int64) float64 {
	return Alg1Cost(a, b, n) * float64(w)
}

// BitonicComparators is the thesis's sorting network's exact comparator
// count for m = 2^k cells, (m/2)·k(k+1)/2, which §4.4.1 approximates as
// ¼·m·(log₂ m)². The paper's formulas assume this network; the
// implementation sorts with Batcher's odd-even mergesort
// (oblivious.Comparators), which needs fewer.
func BitonicComparators(m int64) int64 {
	if m <= 1 {
		return 0
	}
	k := int64(bits.Len64(uint64(m))) - 1
	return (m / 2) * k * (k + 1) / 2
}

func sq(x float64) float64 { return x * x }

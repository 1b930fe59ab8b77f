package costmodel

import "math"

// This file implements the blemish-probability machinery of §5.3.3.
// Algorithm 6 partitions the L iTuples into random segments of size n; a
// segment "blemishes" when it yields more than M join results, forcing a
// salvage pass that may leak. x(n), the number of results among n tuples
// drawn without replacement from L containing S results, is hypergeometric
// (Eqn 5.4):
//
//	P[x(n) = k] = C(S,k)·C(L−S, n−k) / C(L,n)
//
// The probability that at least one of the L/n segments blemishes is union-
// bounded by P_M(n) = (L/n)·P[x(n) > M] (the paper's Eqn 5.5 sums k from 1;
// the tail is computed here directly over k = M+1 … min(n,S), stopping
// where the remaining terms cannot change it, in log space to survive the
// 10⁻⁶⁰-scale values of Figure 5.4).

// logChoose returns ln C(a, b), or -Inf outside the support.
func logChoose(a, b int64) float64 {
	if b < 0 || b > a {
		return math.Inf(-1)
	}
	la, _ := math.Lgamma(float64(a) + 1)
	lb, _ := math.Lgamma(float64(b) + 1)
	lab, _ := math.Lgamma(float64(a-b) + 1)
	return la - lb - lab
}

// TailProbGreater returns P[x(n) > m] exactly (up to float rounding),
// summing the log-space PMF, ln C(S,k) + ln C(L−S, n−k) − ln C(L, n), with
// one streaming log-sum-exp and the constant ln C(L, n) taken once. The
// PMF is unimodal, so a term no larger than the largest before it lies
// past the mode, and the sum stops at the first such term below 2⁻⁶⁰ of
// the running sum: the terms after it only shrink, so together they add
// at most their count times 2⁻⁶⁰ of the sum.
func TailProbGreater(l, s, n, m int64) float64 {
	hi := min(n, s)
	if m >= hi {
		return 0
	}
	lnTotal := logChoose(l, n)
	maxLog, sum := math.Inf(-1), 0.0 // the tail is exp(maxLog)·sum
	for k := max(m+1, 0); k <= hi; k++ {
		lp := logChoose(s, k) + logChoose(l-s, n-k) - lnTotal
		if lp > maxLog { // rising to the mode: lp is the largest term yet
			sum = sum*math.Exp(maxLog-lp) + 1
			maxLog = lp
			continue
		}
		if math.IsInf(maxLog, -1) { // below the support
			continue
		}
		term := math.Exp(lp - maxLog)
		if sum += term; term < 0x1p-60*sum {
			break
		}
	}
	if math.IsInf(maxLog, -1) {
		return 0
	}
	return min(math.Exp(maxLog)*sum, 1)
}

// BlemishBound returns P_M(n) = min(1, (L/n)·P[x(n) > M]), the union bound
// on the probability that any segment of a random partition blemishes.
func BlemishBound(l, s, m, n int64) float64 {
	if n <= 0 {
		return 1
	}
	tail := TailProbGreater(l, s, n, m)
	segments := float64(l) / float64(n)
	p := segments * tail
	if p > 1 {
		p = 1
	}
	return p
}

// OptimalSegment computes n*, the largest segment size n ∈ [1, L] with
// P_M(n) ≤ ε (§5.3.3; the thesis's Eqn 5.6 says "arg min", but minimising n
// is trivially n = 1 — the intent, confirmed by the monotone cost decrease
// of Figure 5.2, is the largest safe n).
//
// Special cases fall out of the tail: when S ≤ M no segment can blemish and
// n* = L; when ε = 0 and S > M, only n ≤ M gives a provably zero tail, so
// n* = M and Algorithm 6 degenerates towards Algorithm 4's behaviour.
func OptimalSegment(l, s, m int64, eps float64) int64 {
	if l <= 0 {
		return 0
	}
	ok := func(n int64) bool { return BlemishBound(l, s, m, n) <= eps }
	if ok(l) {
		return l
	}
	// n = M is always safe: a segment of M tuples yields at most M results.
	lo := m
	if lo < 1 {
		lo = 1
	}
	if lo >= l {
		return l
	}
	if !ok(lo) {
		// ε smaller than even the zero-tail regime allows (only possible
		// for ε < 0); degrade to the always-safe segment size.
		return lo
	}
	// Exponential search for the first failing size, then bisection. The
	// bound is monotone increasing in n for all practical regimes; the
	// final answer is verified with ok() either way.
	hi := lo * 2
	for hi < l && ok(hi) {
		lo = hi
		hi *= 2
	}
	if hi > l {
		hi = l
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

package main

import (
	"ppj/internal/costmodel"
	"ppj/internal/oblivious"
)

// runAblation quantifies the design choices DESIGN.md calls out:
//
//  1. sorting network — the thesis's formulas count bitonic sort; the
//     implementation runs Batcher's odd-even mergesort, oblivious too and
//     with fewer comparators;
//  2. the filter swap size Δ — the §5.2.2 cost is unimodal in Δ, and both
//     the paper's fixed-point Δ* and this repo's exact argmin sit at its
//     bottom;
//  3. Algorithm 6's segment size n* — smaller segments waste flushes,
//     larger ones break the ε guarantee; n* sits exactly on the frontier.
func runAblation(out *output) error {
	// --- 1. Sorting network ---
	out.printf("1. sorting network: transfers to obliviously sort n cells\n\n")
	out.printf("%-10s %18s %22s %10s\n", "n", "paper (bitonic)", "implementation (oe)", "saving")
	out.csvRow("section", "x", "paper_bitonic", "implementation_oddeven")
	for _, n := range []int64{1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		bi := 4 * costmodel.BitonicComparators(n) // n is a power of two: no padding
		oe := oblivious.SortTransfers(n, 1)
		out.printf("%-10d %18d %22d %9.1f%%\n", n, bi, oe, 100*(1-float64(oe)/float64(bi)))
		out.csvRow("network", n, bi, oe)
	}
	out.printf("(the thesis's formulas assume bitonic; every sort this repo runs,\n")
	out.printf("Algorithm 4/6's filter included, is odd-even)\n\n")

	// --- 2. Filter swap size ---
	const omega, mu = 640_000, 6_400
	chosen := oblivious.ChooseDelta(omega, mu)
	out.printf("2. decoy-filter swap size, ω=%d μ=%d (power-of-two buffer sizes)\n\n", omega, mu)
	out.printf("%-12s %16s %10s\n", "delta", "transfers", "")
	for bufSize := oblivious.NextPow2(mu + 1); bufSize <= oblivious.NextPow2(omega); bufSize *= 2 {
		delta := bufSize - mu
		cost := oblivious.FilterTransfers(omega, mu, delta)
		marker := ""
		if delta == chosen {
			marker = "<- chosen"
		}
		out.printf("%-12d %16d %10s\n", delta, cost, marker)
		out.csvRow("filter", delta, cost, "")
	}
	paperDelta := costmodel.OptimalDeltaPaper(mu)
	exactDelta := costmodel.OptimalDeltaExact(omega, mu)
	out.printf("paper fixed-point Δ* = %.0f, exact continuous argmin = %d\n\n", paperDelta, exactDelta)

	// --- 3. Algorithm 6 segment size ---
	const l, s, m = 640_000, 6_400, 64
	const eps = 1e-20
	nStar := costmodel.OptimalSegment(l, s, m, eps)
	out.printf("3. Algorithm 6 segment size, L=%d S=%d M=%d, eps=%.0e (n* = %d)\n\n", l, s, m, eps, nStar)
	out.printf("%-10s %16s %14s %12s\n", "n", "cost (tuples)", "blemish bound", "within eps")
	for _, frac := range []struct {
		label string
		n     int64
	}{
		{"n*/4", nStar / 4}, {"n*/2", nStar / 2}, {"n*", nStar},
		{"2n*", nStar * 2}, {"4n*", nStar * 4},
	} {
		n := frac.n
		if n < 1 {
			n = 1
		}
		segments := (l + n - 1) / n
		omega6 := segments * m
		cost := 2*float64(l) + float64(omega6) + costmodel.FilterCost(omega6, s)
		bound := costmodel.BlemishBound(l, s, m, n)
		ok := "yes"
		if bound > eps {
			ok = "NO"
		}
		out.printf("%-10s %16.0f %14.2e %12s\n", frac.label, cost, bound, ok)
		out.csvRow("segment", n, cost, bound)
	}
	out.printf("(n* is the largest segment size still inside the privacy budget: cheaper\n")
	out.printf("points to its right all violate eps)\n")
	return nil
}

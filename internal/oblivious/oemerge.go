package oblivious

import (
	"fmt"

	"ppj/internal/sim"
)

// This file implements Batcher's odd-even mergesort, the other classic
// O(n log²n) oblivious sorting network, as an ablation against the bitonic
// network the paper builds on (§4.4.1 cites Batcher [7], which introduces
// both). Odd-even mergesort uses ~25% fewer comparators than bitonic at the
// same depth class; the thesis's cost formulas assume bitonic, so the
// benchmarks quantify what switching networks would save — one of the
// "faster algorithms than what we have proposed?" threads of Chapter 6.

// SortOddEven obliviously sorts cells [0, n) of a host region ascending
// using the odd-even merge network. Padding and access-pattern properties
// are identical in kind to Sort: every comparator moves 4 cells regardless
// of outcome, and the schedule depends only on n.
func SortOddEven(t *sim.Coprocessor, region sim.RegionID, n int64, less LessFunc) error {
	if n < 0 {
		return fmt.Errorf("oblivious: negative element count %d", n)
	}
	if n <= 1 {
		return nil
	}
	m := NextPow2(n)
	if err := PadRange(t, region, n, m); err != nil {
		return err
	}
	return oddEvenMergeSort([]*sim.Coprocessor{t}, make([]xchg, 1), region, 0, m, padLast(less))
}

// oddEvenMergeSort sorts the m (power of two) cells starting at lo.
func oddEvenMergeSort(cops []*sim.Coprocessor, xs []xchg, region sim.RegionID, lo, m int64, less LessFunc) error {
	if m <= 1 {
		return nil
	}
	half := m / 2
	if err := oddEvenMergeSort(cops, xs, region, lo, half, less); err != nil {
		return err
	}
	if err := oddEvenMergeSort(cops, xs, region, lo+half, half, less); err != nil {
		return err
	}
	return oddEvenMerge(cops, xs, region, lo, m, 1, less)
}

// MergeHalves merges the two independently sorted halves of cells [0, m)
// (m a power of two, each half ascending with any padding cells already
// maximal at its top) into one ascending run using Batcher's odd-even
// merge over a power-of-two device group. With SortSpan it lets a caller
// build one sorted array out of independently sorted (and possibly cached)
// halves. Summed transfers: MergeHalvesTransfers(m) at every group size.
func MergeHalves(cops []*sim.Coprocessor, region sim.RegionID, m int64, less LessFunc) error {
	p, err := groupSize(cops)
	switch {
	case err != nil:
		return err
	case m <= 1:
		return nil
	case m&(m-1) != 0:
		return fmt.Errorf("oblivious: merge size %d must be a power of two", m)
	}
	if p > m {
		p = m
	}
	return oddEvenMerge(cops[:p], make([]xchg, p), region, 0, m, 1, padLast(less))
}

// MergeHalvesTransfers returns the exact transfer count of MergeHalves,
// summed over the group, for m cells.
func MergeHalvesTransfers(m int64) int64 {
	if m <= 1 {
		return 0
	}
	return 4 * oddEvenMergeComparators(m, 1)
}

// oddEvenMerge merges the two sorted halves of the m cells at stride r
// starting at lo (Batcher's recursive formulation) over a device group with
// one comparator scratch per device. The two stride sub-recursions touch
// disjoint cells (the even and odd multiples of r), so each takes half the
// group concurrently; a one-device group runs them in order on the
// caller's goroutine. The closing comparator chain of each level runs on
// the group's first device after both sub-merges complete.
func oddEvenMerge(cops []*sim.Coprocessor, xs []xchg, region sim.RegionID, lo, m, r int64, less LessFunc) error {
	step := r * 2
	if step >= m {
		return xs[0].compareExchange(cops[0], region, lo, lo+r, true, less)
	}
	if half := int64(len(cops) / 2); half == 0 {
		if err := oddEvenMerge(cops, xs, region, lo, m, step, less); err != nil {
			return err
		}
		if err := oddEvenMerge(cops, xs, region, lo+r, m, step, less); err != nil {
			return err
		}
	} else if err := ForEach(2, func(w int64) error {
		return oddEvenMerge(cops[w*half:(w+1)*half], xs[w*half:(w+1)*half], region, lo+w*r, m, step, less)
	}); err != nil {
		return err
	}
	for i := lo + r; i+r < lo+m; i += step {
		if err := xs[0].compareExchange(cops[0], region, i, i+r, true, less); err != nil {
			return err
		}
	}
	return nil
}

// OddEvenComparators returns the exact comparator count of the odd-even
// merge network for m = 2^k cells.
func OddEvenComparators(m int64) int64 {
	if m <= 1 {
		return 0
	}
	half := m / 2
	return 2*OddEvenComparators(half) + oddEvenMergeComparators(m, 1)
}

func oddEvenMergeComparators(m, r int64) int64 {
	step := r * 2
	if step < m {
		c := oddEvenMergeComparators(m, step) + oddEvenMergeComparators(m, step)
		// The final compare-exchange chain of this level.
		for i := r; i+r < m; i += step {
			c++
		}
		return c
	}
	return 1
}

// SortOddEvenTransfers returns the exact transfer count of SortOddEven.
func SortOddEvenTransfers(n int64) int64 {
	if n <= 1 {
		return 0
	}
	m := NextPow2(n)
	return (m - n) + 4*OddEvenComparators(m)
}

package oblivious

import (
	"fmt"

	"ppj/internal/sim"
)

// Filter implements the optimised oblivious decoy removal of §5.2.2: given a
// source list of ω encrypted cells of which at most μ are "targets" (real
// join results) and the rest decoys, it returns a buffer region whose first
// μ cells contain every target, without revealing which source positions
// held them.
//
// Instead of one oblivious sort of all ω cells, it repeatedly sorts a buffer
// of μ+Δ cells: the buffer is filled from the source, sorted target-first,
// and then its bottom Δ cells — guaranteed decoys, since at most μ targets
// exist — are overwritten with the next Δ source cells. The paper shows the
// total cost (ω−μ)/Δ · (μ+Δ)[log₂(μ+Δ)]² transfers and derives an optimal
// swap size Δ* (its formula counts bitonic sort; FilterTransfers counts the
// odd-even network this package runs).
//
// The filter runs over a power-of-two device group attached to one host and
// sharing one sealer: the copy and pad passes run on group[0], and each
// round's buffer sort is one SortSpan over the whole group — the thesis's
// "oblivious filtering out decoys in parallel requires a parallel … sort"
// (§5.3.5). Summed over the group the transfers are FilterTransfers(ω, μ, Δ)
// at every group size; a one-device group is the sequential filter. An empty
// group or one whose size is not a power of two is refused before any
// transfer.
//
// This implementation requires μ+Δ to be a power of two so the repeated
// sorts need no per-round padding; ChooseDelta picks the best such
// Δ. Rounds with fewer than Δ remaining source cells are topped up with
// padding cells, so the access pattern is a function of (ω, μ, Δ, P) only.
func Filter(group []*sim.Coprocessor, src sim.RegionID, omega, mu, delta int64,
	isTarget func([]byte) bool, bufName string) (sim.RegionID, error) {
	if _, err := groupSize(group); err != nil {
		return 0, err
	}
	if mu < 0 || omega < 0 || delta <= 0 {
		return 0, fmt.Errorf("oblivious: invalid filter shape ω=%d μ=%d Δ=%d", omega, mu, delta)
	}
	bufSize := mu + delta
	if bufSize != NextPow2(bufSize) {
		return 0, fmt.Errorf("oblivious: filter buffer μ+Δ = %d must be a power of two", bufSize)
	}
	t := group[0]
	buf := t.Host().FreshRegion(bufName, int(bufSize))
	less := func(a, b []byte) bool {
		// Targets first; SortSpan's internal wrapper already places padding
		// cells last, so only real-vs-real ordering matters here.
		return isTarget(a) && !isTarget(b)
	}

	// copyCell re-encrypts a source cell into the buffer unchanged; the
	// batched RMW keeps the get/put interleaving of the old per-cell loop.
	copyCell := func(k int64, pt []byte) ([]byte, error) { return pt, nil }

	// Initial fill: the first min(ω, μ+Δ) source cells, padded to μ+Δ.
	head := min64(omega, bufSize)
	if err := t.TransformRange(buf, 0, src, 0, head, copyCell); err != nil {
		return 0, err
	}
	if err := PadRange(t, buf, head, bufSize); err != nil {
		return 0, err
	}
	if err := SortSpan(group, buf, 0, bufSize, 1, less); err != nil {
		return 0, err
	}

	for pos := bufSize; pos < omega; pos += delta {
		r := min64(delta, omega-pos)
		if err := t.TransformRange(buf, mu, src, pos, r, copyCell); err != nil {
			return 0, err
		}
		if err := PadRange(t, buf, mu+r, mu+delta); err != nil {
			return 0, err
		}
		if err := SortSpan(group, buf, 0, bufSize, 1, less); err != nil {
			return 0, err
		}
	}
	return buf, nil
}

// FilterTransfers returns the exact transfer count of Filter(ω, μ, Δ),
// summed over the group, at every group size.
func FilterTransfers(omega, mu, delta int64) int64 {
	bufSize := mu + delta
	head := min64(omega, bufSize)
	total := 2*head + (bufSize - head) // initial copy + fill
	rounds := int64(1)
	for pos := bufSize; pos < omega; pos += delta {
		r := min64(delta, omega-pos)
		total += 2*r + (delta - r)
		rounds++
	}
	total += rounds * 4 * Comparators(bufSize)
	return total
}

// ChooseDelta returns the power-of-two-compatible swap size Δ (with μ+Δ a
// power of two) minimising FilterTransfers for the given ω and μ. It is the
// implementation analogue of the paper's Δ* (Eqn. 5.1).
func ChooseDelta(omega, mu int64) int64 {
	best := int64(-1)
	var bestCost int64
	// Candidate buffer sizes: powers of two from just above μ up to well
	// past ω (a single full sort).
	for bufSize := NextPow2(mu + 1); ; bufSize <<= 1 {
		delta := bufSize - mu
		if delta <= 0 {
			continue
		}
		cost := FilterTransfers(omega, mu, delta)
		if best < 0 || cost < bestCost {
			best, bestCost = delta, cost
		}
		if bufSize >= NextPow2(omega)*2 || bufSize > 1<<40 {
			break
		}
	}
	return best
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

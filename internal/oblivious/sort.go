// Package oblivious implements the data-oblivious building blocks the join
// algorithms orchestrate through the secure coprocessor: Batcher's odd-even
// mergesort network, an oblivious shuffle (random-key sort, used by the
// unsafe-baseline discussions of §4.5.1), the optimised repeated decoy
// filter of §5.2.2, and Algorithm 7's expansion primitives: order-preserving
// compaction (Compact), the distribution network it inverts (Distribute),
// and the fill-forward scan.
//
// An oblivious sort "sorts a list of encrypted elements such that no
// observer learns the relationship between the position of any element in
// the original list and the output list" (§4.4.1). The thesis cites Batcher
// [7], which introduces two such networks, bitonic sort and odd-even
// mergesort; its cost formulas count the bitonic one (costmodel keeps
// them), and this package runs odd-even mergesort, which needs fewer
// comparators at every size above two cells. Either is oblivious because the
// comparator schedule is a pure function of the element count: every
// compare-exchange gets both cells, decrypts, compares inside T,
// re-encrypts, and writes both cells back — 4 transfers per comparator,
// always, regardless of the outcome.
package oblivious

import (
	"fmt"
	"math/bits"
	"sync"

	"ppj/internal/sim"
)

// LessFunc orders decrypted cell plaintexts.
type LessFunc func(a, b []byte) bool

// padCell is the plaintext of padding cells appended when the element count
// is not a power of two. It compares greater than every real element. Real
// cell plaintexts must be longer than one byte (all tuple encodings are).
var padCell = []byte{0xF0}

func isPad(b []byte) bool { return len(b) == 1 && b[0] == padCell[0] }

// NextPow2 returns the smallest power of two >= n (n > 0).
func NextPow2(n int64) int64 {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len64(uint64(n-1))
}

// Sort obliviously sorts cells [0, n) of a host region in ascending order of
// less on one device: SortSpan at offset 0 over a one-device group.
func Sort(t *sim.Coprocessor, region sim.RegionID, n int64, less LessFunc) error {
	return SortSpan([]*sim.Coprocessor{t}, region, 0, n, less)
}

// SortOddEven is Sort under the name the benchmark module's probes call.
func SortOddEven(t *sim.Coprocessor, region sim.RegionID, n int64, less LessFunc) error {
	return Sort(t, region, n, less)
}

// SortSpan obliviously sorts cells [lo, lo+n) of a host region ascending
// over a power-of-two group of coprocessors attached to the same host and
// sharing one sealer (they re-encrypt cells for each other). If n is not a
// power of two the span is first extended with padding cells (maximal
// elements) up to m = NextPow2(n), so the region must reach lo+m; after
// sorting the pads occupy [lo+n, lo+m). Summed transfers: SortTransfers(n)
// at every group size.
//
// The network is Batcher's odd-even mergesort, recursively: sort the two
// halves, then odd-even merge the whole. Over P devices the halves go to the
// group's halves, so the bottom levels are each device sorting its own block
// of m/P cells and the top log₂P levels are a binary tree of merges, each
// spread over the devices of its subtree. That is the schedule of §4.4.4 /
// §5.3.5 — "each secure coprocessor has about N/P items and first sorts
// them locally ... then the P secure coprocessors sort the P sorted lists" —
// without a second network: the paper's phase 2, a bitonic network over
// blocks with merge-split comparators, does more total work than one device
// sorting alone at P=4. On one device the recursion runs on the caller's
// goroutine. Every device's comparator schedule is a pure function of
// (lo, n, P, its group position) — the pad writes included, contents never
// influence which cells a device touches.
func SortSpan(cops []*sim.Coprocessor, region sim.RegionID, lo, n int64, less LessFunc) error {
	p, err := groupSize(cops)
	switch {
	case err != nil:
		return err
	case n < 0:
		return fmt.Errorf("oblivious: negative element count %d", n)
	case lo < 0:
		return fmt.Errorf("oblivious: negative span offset %d", lo)
	case n <= 1:
		return nil
	}
	m := NextPow2(n)
	if err := PadRange(cops[0], region, lo+n, lo+m); err != nil {
		return err
	}
	p = min(p, m) // more devices than elements: use m of them
	return mergeSort(cops[:p], make([]xchg, p), region, lo, m, padLast(less))
}

// mergeSort sorts the m (a power of two) cells at lo over a device group
// with one comparator scratch per device.
func mergeSort(cops []*sim.Coprocessor, xs []xchg, region sim.RegionID, lo, m int64, less LessFunc) error {
	if m <= 1 {
		return nil
	}
	// The halves take the group's halves concurrently; a one-device group
	// sorts them in order on the caller's goroutine.
	half := m / 2
	if g := int64(len(cops) / 2); g == 0 {
		if err := mergeSort(cops, xs, region, lo, half, less); err != nil {
			return err
		}
		if err := mergeSort(cops, xs, region, lo+half, half, less); err != nil {
			return err
		}
	} else if err := ForEach(2, func(w int64) error {
		return mergeSort(cops[w*g:(w+1)*g], xs[w*g:(w+1)*g], region, lo+w*half, half, less)
	}); err != nil {
		return err
	}
	return oddEvenMerge(cops, xs, region, lo, m, 1, less)
}

// MergeHalves merges the two independently sorted halves of cells [0, m)
// (m a power of two, each half ascending with any padding cells already
// maximal at its top) into one ascending run using Batcher's odd-even
// merge over a power-of-two device group — the last step of SortSpan on its
// own, so a caller can build one sorted array out of independently sorted
// (and possibly cached) halves. Summed transfers: MergeHalvesTransfers(m) at
// every group size.
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
	p = min(p, m)
	return oddEvenMerge(cops[:p], make([]xchg, p), region, 0, m, 1, padLast(less))
}

// oddEvenMerge merges the two sorted halves of the m cells at stride r
// starting at lo (Batcher's recursive formulation). The two stride
// sub-recursions touch disjoint cells (the even and odd multiples of r), so
// each takes half the group concurrently; a one-device group runs them in
// order on the caller's goroutine. The closing comparator chain of each
// level runs on the group's first device after both sub-merges complete.
func oddEvenMerge(cops []*sim.Coprocessor, xs []xchg, region sim.RegionID, lo, m, r int64, less LessFunc) error {
	step := r * 2
	if step >= m {
		return xs[0].compareExchange(cops[0], region, lo, lo+r, less)
	}
	if g := int64(len(cops) / 2); g == 0 {
		if err := oddEvenMerge(cops, xs, region, lo, m, step, less); err != nil {
			return err
		}
		if err := oddEvenMerge(cops, xs, region, lo+r, m, step, less); err != nil {
			return err
		}
	} else if err := ForEach(2, func(w int64) error {
		return oddEvenMerge(cops[w*g:(w+1)*g], xs[w*g:(w+1)*g], region, lo+w*r, m, step, less)
	}); err != nil {
		return err
	}
	for i := lo + r; i+r < lo+m; i += step {
		if err := xs[0].compareExchange(cops[0], region, i, i+r, less); err != nil {
			return err
		}
	}
	return nil
}

// groupSize validates a device group: at least one coprocessor, a power of
// two of them.
func groupSize(cops []*sim.Coprocessor) (int64, error) {
	p := int64(len(cops))
	if p == 0 {
		return 0, fmt.Errorf("oblivious: no coprocessors")
	}
	if p&(p-1) != 0 {
		return 0, fmt.Errorf("oblivious: coprocessor count %d must be a power of two", p)
	}
	return p, nil
}

// ForEach runs fn(0..n-1) concurrently, one goroutine each, and returns the
// first error in index order. A single call runs on the caller's goroutine —
// which is what makes a one-device group's trace the sequential one by
// construction.
func ForEach(n int64, fn func(w int64) error) error {
	if n == 1 {
		return fn(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := int64(0); w < n; w++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// PadRange writes padding cells (maximal elements under every sort and
// merge of this package) into [from, to) of a region through the batched
// transfer path. Exported so callers composing spans can pad the gap
// between a span's power-of-two envelope and a larger fixed layout.
func PadRange(t *sim.Coprocessor, region sim.RegionID, from, to int64) error {
	n := to - from
	if n <= 0 {
		return nil
	}
	pads := make([][]byte, n)
	for i := range pads {
		pads[i] = padCell
	}
	return t.PutRange(region, from, pads)
}

// padLast wraps a comparator so padding cells sort after every real cell.
func padLast(less LessFunc) LessFunc {
	return func(a, b []byte) bool {
		switch {
		case isPad(a):
			return false
		case isPad(b):
			return true
		default:
			return less(a, b)
		}
	}
}

// xchg is the reused scratch of the batched comparator: two index slots and
// two plaintext buffers whose backing arrays survive across comparators, so
// a full sorting network allocates nothing per compare-exchange. One xchg
// belongs to one goroutine; a device group carries one per device.
type xchg struct {
	idx [2]int64
	pts [][]byte
}

// compareExchange performs one ascending comparator: get both cells (one
// batched transfer), compare inside T, put both cells back, swapped if cell
// j orders before cell i. The traced sequence — get i, get j, put i, put j —
// and the transfer count are identical to the per-cell version and
// outcome-independent.
func (x *xchg) compareExchange(t *sim.Coprocessor, region sim.RegionID, i, j int64, less LessFunc) error {
	x.idx[0], x.idx[1] = i, j
	var err error
	x.pts, err = t.GetBatchInto(x.pts, region, x.idx[:])
	if err != nil {
		return err
	}
	t.ChargeCompare()
	if less(x.pts[1], x.pts[0]) {
		x.pts[0], x.pts[1] = x.pts[1], x.pts[0]
	}
	return t.PutBatch(region, x.idx[:], x.pts)
}

// Comparators returns the exact number of compare-exchanges the odd-even
// mergesort network executes for m = 2^k cells: two half sorts and one
// merge.
func Comparators(m int64) int64 {
	if m <= 1 {
		return 0
	}
	return 2*Comparators(m/2) + mergeComparators(m, 1)
}

// mergeComparators counts oddEvenMerge's comparators over m cells at stride
// r: one at the last stride, otherwise two sub-merges and the closing chain.
func mergeComparators(m, r int64) int64 {
	if 2*r >= m {
		return 1
	}
	return 2*mergeComparators(m, 2*r) + m/(2*r) - 1
}

// SortTransfers returns the exact number of tuple transfers of SortSpan,
// summed over the group, for n elements: padding puts plus 4 per comparator.
func SortTransfers(n int64) int64 {
	if n <= 1 {
		return 0
	}
	m := NextPow2(n)
	return (m - n) + 4*Comparators(m)
}

// MergeHalvesTransfers returns the exact transfer count of MergeHalves,
// summed over the group, for m cells.
func MergeHalvesTransfers(m int64) int64 {
	if m <= 1 {
		return 0
	}
	return 4 * mergeComparators(m, 1)
}

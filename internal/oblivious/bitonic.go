// Package oblivious implements the data-oblivious building blocks the join
// algorithms orchestrate through the secure coprocessor: Batcher's bitonic
// sorting network (§4.4.1), an oblivious shuffle (random-key sort, used by
// the unsafe-baseline discussions of §4.5.1), and the optimised repeated
// decoy filter of §5.2.2.
//
// An oblivious sort "sorts a list of encrypted elements such that no
// observer learns the relationship between the position of any element in
// the original list and the output list" (§4.4.1). Bitonic networks achieve
// this because the comparator schedule is a pure function of the element
// count: every compare-exchange gets both cells, decrypts, compares inside
// T, re-encrypts, and writes both cells back — 4 transfers per comparator,
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

// SortSpan obliviously sorts cells [lo, lo+n) of a host region ascending
// over a power-of-two group of coprocessors attached to the same host and
// sharing one sealer (they re-encrypt cells for each other). If n is not a
// power of two the span is first extended with padding cells (maximal
// elements) up to m = NextPow2(n), so the region must reach lo+m; after
// sorting the pads occupy [lo+n, lo+m). Summed transfers: SortTransfers(n)
// on one device.
//
// The schedule is §4.4.4 / §5.3.5's: "Each secure coprocessor has about N/P
// items and first sorts them locally using sequential bitonic sort. Then
// the P secure coprocessors sort the P sorted lists". The P sorted blocks
// are combined by a binary tree of Batcher odd-even merges: each level
// merges adjacent sorted runs pairwise until one run remains. The paper's
// own phase 2 — a bitonic network over blocks with merge-split comparators
// — has the same depth but performs redundant merge-split work: at P=4 its
// total comparator count *exceeds* the single-device network (the BENCH_3
// P=4 regression on few-core hosts, where wall time tracks total work, not
// critical path). The merge tree does strictly fewer comparators than the
// sequential sort at every P > 1 while keeping every stage's parallelism.
//
// On one device the tree is empty and the local sort is the whole network,
// run on the caller's goroutine: the sequential sort is this schedule at
// P = 1, not a second implementation. Every device's comparator schedule is
// a pure function of (lo, n, P, its group position) — the pad writes
// included, contents never influence which cells a device touches.
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
	if p > m {
		p = m // more devices than elements: use m of them
	}
	block := m / p
	less = padLast(less)

	// Per-device comparator scratch: within any phase or level the workers
	// map to distinct devices, so xs[w] is never shared between live
	// goroutines.
	xs := make([]xchg, p)

	// Phase 1: local sorts, one block per coprocessor.
	if err := ForEach(p, func(w int64) error {
		return bitonic(cops[w], &xs[w], region, lo+w*block, block, less)
	}); err != nil {
		return err
	}

	// Phase 2: level by level, adjacent sorted runs of `width` cells merge
	// into runs of 2·width; the m/(2·width) merges of a level are disjoint
	// and run concurrently, each on its own contiguous group of devices.
	for width := block; width < m; width <<= 1 {
		merges := m / (2 * width)
		devs := p / merges
		if err := ForEach(merges, func(w int64) error {
			g := w * devs
			return oddEvenMerge(cops[g:g+devs], xs[g:g+devs], region, lo+w*2*width, 2*width, 1, less)
		}); err != nil {
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

// bitonic runs the classic iterative bitonic network over the m = 2^k cells
// at lo.
func bitonic(t *sim.Coprocessor, x *xchg, region sim.RegionID, lo, m int64, less LessFunc) error {
	for k := int64(2); k <= m; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			for i := int64(0); i < m; i++ {
				l := i ^ j
				if l <= i {
					continue
				}
				ascending := i&k == 0
				if err := x.compareExchange(t, region, lo+i, lo+l, ascending, less); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// xchg is the reused scratch of the batched comparator: two index slots and
// two plaintext buffers whose backing arrays survive across comparators, so
// a full sorting network allocates nothing per compare-exchange. One xchg
// belongs to one goroutine; a device group carries one per device.
type xchg struct {
	idx [2]int64
	pts [][]byte
}

// compareExchange performs one comparator: get both cells (one batched
// transfer), compare inside T, put both cells back (possibly swapped). The
// traced sequence — get i, get j, put i, put j — and the transfer count are
// identical to the per-cell version and outcome-independent.
func (x *xchg) compareExchange(t *sim.Coprocessor, region sim.RegionID, i, j int64, ascending bool, less LessFunc) error {
	x.idx[0], x.idx[1] = i, j
	var err error
	x.pts, err = t.GetBatchInto(x.pts, region, x.idx[:])
	if err != nil {
		return err
	}
	t.ChargeCompare()
	if less(x.pts[1], x.pts[0]) == ascending {
		x.pts[0], x.pts[1] = x.pts[1], x.pts[0]
	}
	return t.PutBatch(region, x.idx[:], x.pts)
}

// Comparators returns the exact number of compare-exchanges the network
// executes for m = 2^k elements: (m/2)·k(k+1)/2. The paper approximates
// this as ¼·m·(log₂ m)² (§4.4.1).
func Comparators(m int64) int64 {
	if m <= 1 {
		return 0
	}
	k := int64(bits.Len64(uint64(m))) - 1
	return (m / 2) * k * (k + 1) / 2
}

// SortTransfers returns the exact number of tuple transfers of SortSpan on
// one device for n elements: padding puts plus 4 per comparator.
func SortTransfers(n int64) int64 {
	if n <= 1 {
		return 0
	}
	m := NextPow2(n)
	return (m - n) + 4*Comparators(m)
}

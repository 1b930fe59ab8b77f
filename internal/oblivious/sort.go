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
// always, regardless of the outcome. The sorts and the merge also run over
// blocks of b cells of T's memory (BlockFor): a comparator then moves two
// aligned blocks, 4b transfers, whatever the outcome. The expansion
// networks (Compact, Distribute) use b only below stride b, where one
// streaming window pass replaces those strides; every stride j ≥ b still
// exchanges two cells at a time (movePair), 4 transfers per pair. Block
// pairs at those strides would change the networks' schedule, and with it
// their trace digests.
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

// MaxBlock is the largest block size of the block networks: one block
// comparator holds 2·MaxBlock cells, exactly one sim.TransferBatch staging
// window.
const MaxBlock = sim.TransferBatch / 2

// BlockFor returns the block size a device with m free tuple slots runs the
// networks at: the largest power of two B ≤ MaxBlock whose 2B-cell grant
// fits in m, and 1 — the uncharged two-cell staging — below m = 4.
func BlockFor(m int64) int64 {
	b := int64(1)
	for b < MaxBlock && 4*b <= m {
		b *= 2
	}
	return b
}

// Sort obliviously sorts cells [0, n) of a host region in ascending order of
// less on one device: SortSpan at offset 0 over a one-device group, one cell
// per block.
func Sort(t *sim.Coprocessor, region sim.RegionID, n int64, less LessFunc) error {
	return SortSpan([]*sim.Coprocessor{t}, region, 0, n, 1, less)
}

// SortOddEven is Sort under the name the benchmark module's probes call.
func SortOddEven(t *sim.Coprocessor, region sim.RegionID, n int64, less LessFunc) error {
	return Sort(t, region, n, less)
}

// SortSpan obliviously sorts cells [lo, lo+n) of a host region ascending
// over a power-of-two group of coprocessors attached to the same host and
// sharing one sealer (they re-encrypt cells for each other), in blocks of b
// cells (a power of two up to MaxBlock). If n is not a power of two the span
// is first extended with padding cells (maximal elements) up to
// m = NextPow2(n), so the region must reach lo+m; after sorting the pads
// occupy [lo+n, lo+m). Summed transfers: SortTransfers(n, b) at every group
// size.
//
// The network is Batcher's odd-even mergesort, recursively: sort the two
// halves, then odd-even merge the whole. It runs over the m/b blocks of the
// span (b is capped at m/2): a span of two blocks is read once, sorted
// inside T by the same network over its cells, and written once, and above
// that every comparator is a merge-split — one batched get of two sorted
// blocks, a fixed odd-even merge of their 2b plaintexts inside T, one
// batched put of the lower half to the first block and the upper half to
// the second. Knuth's merge-split theorem (any sorting network sorts sorted
// blocks when its comparators merge-split) makes the block network correct.
// At b = 1 every comparator is a plain compare-exchange and the span of two
// blocks is one, so the schedule is the cell network, trace for trace. Every
// comparator inside T is charged to Stats.Comparisons.
//
// Over P devices the halves go to the group's halves, so the bottom levels
// are each device sorting its own share of blocks and the top log₂P levels
// are a binary tree of merges, each spread over the devices of its subtree.
// That is the schedule of §4.4.4 / §5.3.5 — "each secure coprocessor has
// about N/P items and first sorts them locally ... then the P secure
// coprocessors sort the P sorted lists" — without a second network: the
// paper's phase 2, a bitonic network over blocks with merge-split
// comparators, does more total work than one device sorting alone at P=4.
// The group is capped at m/b devices. On one device the recursion runs on
// the caller's goroutine. Every device's comparator schedule is a pure
// function of (lo, n, b, P, its group position) — the pad writes included,
// contents never influence which cells a device touches.
//
// With b > 1 the network holds 2b cells inside T: it Grants them on every
// device of the group and is refused before its first transfer if any
// device lacks them. At b = 1 it runs in the uncharged two-cell staging.
func SortSpan(cops []*sim.Coprocessor, region sim.RegionID, lo, n, b int64, less LessFunc) error {
	p, err := groupSize(cops)
	switch {
	case err != nil:
		return err
	case n < 0:
		return fmt.Errorf("oblivious: negative element count %d", n)
	case lo < 0:
		return fmt.Errorf("oblivious: negative span offset %d", lo)
	}
	if err := checkBlock(b); err != nil || n <= 1 {
		return err
	}
	m := NextPow2(n)
	b = min(b, m/2)
	p = min(p, m/b) // more devices than blocks: use m/b of them
	release, err := grantBlocks(cops[:p], b)
	if err != nil {
		return err
	}
	defer release()
	if err := PadRange(cops[0], region, lo+n, lo+m); err != nil {
		return err
	}
	nw := &blockNet{region: region, b: b, less: padLast(less)}
	return nw.mergeSort(cops[:p], make([]xchg, p), lo, m/b)
}

// MergeHalves merges the two independently sorted halves of cells [0, m)
// (m a power of two, each half ascending with any padding cells already
// maximal at its top) into one ascending run using Batcher's odd-even
// merge over b-cell blocks and a power-of-two device group — the last step
// of SortSpan on its own, so a caller can build one sorted array out of
// independently sorted (and possibly cached) halves. Blocks, merge-split
// comparators, the group and the grant are SortSpan's. Summed transfers:
// MergeHalvesTransfers(m, b) at every group size.
func MergeHalves(cops []*sim.Coprocessor, region sim.RegionID, m, b int64, less LessFunc) error {
	p, err := groupSize(cops)
	switch {
	case err != nil:
		return err
	case m > 1 && m&(m-1) != 0:
		return fmt.Errorf("oblivious: merge size %d must be a power of two", m)
	}
	if err := checkBlock(b); err != nil || m <= 1 {
		return err
	}
	b = min(b, m/2)
	p = min(p, m/b)
	release, err := grantBlocks(cops[:p], b)
	if err != nil {
		return err
	}
	defer release()
	nw := &blockNet{region: region, b: b, less: padLast(less)}
	return nw.oddEvenMerge(cops[:p], make([]xchg, p), 0, m/b, 1)
}

// blockNet is one run of a block network over a region: its block size and
// the (padding-aware) order.
type blockNet struct {
	region sim.RegionID
	b      int64
	less   LessFunc
}

// mergeSort sorts the k (a power of two, at least two) blocks starting at
// cell lo over a device group with one comparator scratch per device.
func (nw *blockNet) mergeSort(cops []*sim.Coprocessor, xs []xchg, lo, k int64) error {
	if k <= 2 {
		return xs[0].sortSpan(cops[0], nw, lo, k*nw.b)
	}
	// The halves take the group's halves concurrently; a one-device group
	// sorts them in order on the caller's goroutine.
	half := k / 2
	if g := int64(len(cops) / 2); g == 0 {
		if err := nw.mergeSort(cops, xs, lo, half); err != nil {
			return err
		}
		if err := nw.mergeSort(cops, xs, lo+half*nw.b, half); err != nil {
			return err
		}
	} else if err := ForEach(2, func(w int64) error {
		return nw.mergeSort(cops[w*g:(w+1)*g], xs[w*g:(w+1)*g], lo+w*half*nw.b, half)
	}); err != nil {
		return err
	}
	return nw.oddEvenMerge(cops, xs, lo, k, 1)
}

// oddEvenMerge merges the two sorted halves of the k blocks at block stride
// r starting at cell lo (Batcher's recursive formulation). The two stride
// sub-recursions touch disjoint blocks (the even and odd multiples of r), so
// each takes half the group concurrently; a one-device group runs them in
// order on the caller's goroutine. The closing comparator chain of each
// level runs on the group's first device after both sub-merges complete.
func (nw *blockNet) oddEvenMerge(cops []*sim.Coprocessor, xs []xchg, lo, k, r int64) error {
	step := r * 2
	if step >= k {
		return xs[0].mergeSplit(cops[0], nw, lo, lo+r*nw.b)
	}
	if g := int64(len(cops) / 2); g == 0 {
		if err := nw.oddEvenMerge(cops, xs, lo, k, step); err != nil {
			return err
		}
		if err := nw.oddEvenMerge(cops, xs, lo+r*nw.b, k, step); err != nil {
			return err
		}
	} else if err := ForEach(2, func(w int64) error {
		return nw.oddEvenMerge(cops[w*g:(w+1)*g], xs[w*g:(w+1)*g], lo+w*r*nw.b, k, step)
	}); err != nil {
		return err
	}
	for i := r; i+r < k; i += step {
		if err := xs[0].mergeSplit(cops[0], nw, lo+i*nw.b, lo+(i+r)*nw.b); err != nil {
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

// checkBlock validates a block size: a power of two from 1 to MaxBlock.
func checkBlock(b int64) error {
	if b < 1 || b > MaxBlock || b&(b-1) != 0 {
		return fmt.Errorf("oblivious: block size %d must be a power of two in [1, %d]", b, MaxBlock)
	}
	return nil
}

// grantBlocks reserves the 2b cells a block network holds inside T on every
// device of a group, all or none; b = 1 runs in the uncharged two-cell
// staging and reserves nothing. The returned release undoes the grants.
func grantBlocks(cops []*sim.Coprocessor, b int64) (func(), error) {
	var releases []func()
	release := func() {
		for _, r := range releases {
			r()
		}
	}
	if b == 1 {
		return release, nil
	}
	for _, c := range cops {
		r, err := c.Grant(int(2 * b))
		if err != nil {
			release()
			return nil, err
		}
		releases = append(releases, r)
	}
	return release, nil
}

// xchg is the reused scratch of the batched comparators: index slots and
// plaintext buffers whose backing arrays survive across comparators, so a
// full network allocates nothing per comparator. One xchg belongs to one
// goroutine; a device group carries one per device.
type xchg struct {
	idx []int64
	pts [][]byte
}

// cells sets the index slots to the runs [i, i+n) and [j, j+n).
func (x *xchg) cells(i, j, n int64) {
	x.idx = x.idx[:0]
	for _, from := range [2]int64{i, j} {
		for k := from; k < from+n; k++ {
			x.idx = append(x.idx, k)
		}
	}
}

// exchange gets the cells of the index slots (one batched transfer), runs a
// fixed network over their plaintexts inside T, and puts them back in
// place: 2·len(idx) transfers whatever the network decides.
func (x *xchg) exchange(t *sim.Coprocessor, region sim.RegionID, network func(pts [][]byte)) error {
	var err error
	x.pts, err = t.GetBatchInto(x.pts, region, x.idx)
	if err != nil {
		return err
	}
	network(x.pts)
	return t.PutBatch(region, x.idx, x.pts)
}

// sortSpan reads the span of n cells at lo, sorts it inside T with the
// odd-even mergesort network, and writes it back.
func (x *xchg) sortSpan(t *sim.Coprocessor, nw *blockNet, lo, n int64) error {
	x.cells(lo, lo+n/2, n/2)
	return x.exchange(t, nw.region, func(pts [][]byte) { cellNet{t, nw.less}.sort(pts, 0, len(pts)) })
}

// mergeSplit is one block comparator: get the sorted blocks at cells i and
// j, merge their plaintexts inside T with the odd-even merge network, and
// put the lower half back to block i and the upper half to block j. At one
// cell per block it is a compare-exchange: get i, get j, put i, put j, with
// the pair swapped if cell j orders before cell i.
func (x *xchg) mergeSplit(t *sim.Coprocessor, nw *blockNet, i, j int64) error {
	x.cells(i, j, nw.b)
	return x.exchange(t, nw.region, func(pts [][]byte) { cellNet{t, nw.less}.merge(pts, 0, len(pts), 1) })
}

// cellNet runs the odd-even networks over plaintexts held inside T,
// charging every comparator as one comparison: a fixed sequence of
// compare-exchanges whatever the contents.
type cellNet struct {
	t    *sim.Coprocessor
	less LessFunc
}

func (c cellNet) compareExchange(pts [][]byte, i, j int) {
	c.t.ChargeCompare()
	if c.less(pts[j], pts[i]) {
		pts[i], pts[j] = pts[j], pts[i]
	}
}

// sort is odd-even mergesort over the m (a power of two) plaintexts at lo.
func (c cellNet) sort(pts [][]byte, lo, m int) {
	if m <= 1 {
		return
	}
	c.sort(pts, lo, m/2)
	c.sort(pts, lo+m/2, m/2)
	c.merge(pts, lo, m, 1)
}

// merge is the odd-even merge of the two sorted halves of the m plaintexts
// at stride r starting at lo.
func (c cellNet) merge(pts [][]byte, lo, m, r int) {
	step := r * 2
	if step >= m {
		c.compareExchange(pts, lo, lo+r)
		return
	}
	c.merge(pts, lo, m, step)
	c.merge(pts, lo+r, m, step)
	for i := lo + r; i+r < lo+m; i += step {
		c.compareExchange(pts, i, i+r)
	}
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
// summed over the group, for n elements in blocks of b: the padding puts,
// one read and one write of every cell for the two-block spans, and 4b per
// merge-split comparator above them. With m = NextPow2(n) and b ≤ m/2,
//
//	(m − n) + 2m + 4b·(Comparators(m/b) − m/2b)
//
// which at b = 1 is (m − n) + 4·Comparators(m).
func SortTransfers(n, b int64) int64 {
	if n <= 1 {
		return 0
	}
	m := NextPow2(n)
	b = min(b, m/2)
	k := m / b
	return (m - n) + 2*m + 4*b*(Comparators(k)-k/2)
}

// MergeHalvesTransfers returns the exact transfer count of MergeHalves,
// summed over the group, for m cells in blocks of b ≤ m/2: 4b per
// merge-split comparator of the odd-even merge over m/b blocks.
func MergeHalvesTransfers(m, b int64) int64 {
	if m <= 1 {
		return 0
	}
	b = min(b, m/2)
	return 4 * b * mergeComparators(m, b)
}

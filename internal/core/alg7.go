package core

import (
	"encoding/binary"
	"fmt"

	"ppj/internal/oblivious"
	"ppj/internal/relation"
	"ppj/internal/sim"
)

// Join7 runs Algorithm 7, the sort-based oblivious equijoin after
// Krastnikov et al. ("Efficient Oblivious Database Joins", PAPERS.md),
// adapted to the coprocessor model: instead of scanning |A|·|B| pairs or
// N·|A| scratch slots, it sorts the union of both relations once, derives
// per-key multiplicities with three oblivious index scans, and expands each
// side to the exact output size S with the oblivious distribution network
// and a fill-forward duplication scan. Everything is built from the batched
// transfer primitives, so the whole join costs O((n log²n + S log²S))
// transfers for n = |A| + |B| — the union and alignment sorts dominate; the
// expansion itself is O(n log n + S log S) — versus Algorithm 5's scans of
// L = |A|·|B| iTuples.
//
// The pipeline (all arrays hold uniform fixed-size cells: a tag byte, five
// u64 index fields, and the padded tuple encoding):
//
//  1. Union build: copy A and B into one working array W, tagged per side.
//  2. Oblivious sort of W by (join key, tag), grouping equal keys with the
//     A rows first.
//  3. Three index scans (forward, backward, forward) that give every row
//     its in-group occurrence number, its group's multiplicities (c_A,
//     c_B), and its group's first output slot g = Σ c_A·c_B over preceding
//     groups; the third scan also yields S inside T.
//  4. Per side: rewrite rows into (destination, rank, keep) form — an A row
//     with occurrence i takes destination g + i·c_B; a B row with
//     occurrence j takes g + j·c_A; the rank counts the kept rows before it
//     — compact the kept rows to a rank-preserving prefix with the
//     distribution network run backwards, route them forward with it, and
//     duplicate them across their group's slots with the fill-forward scan.
//     The B side fills in B-major order, so each filled copy computes its
//     final slot g + i·c_B + j and one oblivious sort aligns it with A.
//  5. Stitch: one paired scan emits oTuple join rows; the output is exactly
//     S cells, the Chapter 5 output contract.
//
// Every phase's access schedule is a pure function of (|A|, |B|, S): the
// sorts, the compaction and the distribution network are fixed networks,
// the scans touch every cell exactly once, and data-dependent decisions
// (swap or not, keep or not) happen inside T behind outcome-independent
// transfer pairs. S is public under the exact-output contract
// (Definition 3), exactly as in Algorithm 5, so scheduling on it reveals
// nothing new. The duplicate multiplicities — where a naive implementation
// leaks — only ever influence cell contents, never which cell is touched.
//
// T's resident state outside the networks is one cell (the scan
// accumulators and the fill-forward hold slot), so Algorithm 7 runs at every
// device memory M ≥ 1. M sets only the networks' block size B =
// oblivious.BlockFor(M): every sort, merge, compaction and routing moves B
// cells per comparator and holds 2B inside T, so the cost falls as M grows
// up to M = 64 (B = 32) and is flat past it.
func Join7(t *sim.Coprocessor, a, b sim.Table, pred *relation.Equi) (Result, error) {
	res, _, err := join7([]*sim.Coprocessor{t}, a, b, pred, nil, "", "")
	return res, err
}

// join7 is Algorithm 7's one pipeline, over a device fleet and with an
// optional sorted-relation cache (alg7cache.go). The networks are what
// parallelize — the sorts run on the largest power-of-two prefix of the
// fleet, the device group, and the two sides' expansions run concurrently
// on the group's halves; the linear scans, cache restores and the stitch
// stay on the group's first device, O(n + S) against the sorts' log²
// factors. Every device's schedule is a pure function of (|A|, |B|, S, P)
// and, with a cache, the hit bits; on one device it is the sequential
// algorithm, trace for trace.
//
// The key-sorted union is produced one of two ways. Without a cache, A and
// B are wrapped into one array and sorted by one network. With a cache,
// each side is restored or sorted into its own half and the halves are
// merged (buildSortedHalf): the split costs more padding when the sides are
// unequal, which is why it is not the only front half — ROADMAP item 8.
func join7(cops []*sim.Coprocessor, a, b sim.Table, pred *relation.Equi, cache SortedCache, keyA, keyB string) (Result, CacheUse, error) {
	var use CacheUse
	outSchema, err := join7Begin(cops, a, b, pred)
	if err != nil {
		return Result{}, use, err
	}

	n := a.N + b.N
	if n == 0 {
		return join7Empty(cops, outSchema), use, nil
	}
	group := cops[:pow2Prefix(len(cops))]
	t, host := group[0], group[0].Host()
	codec := newA7Codec(pred, a.Schema, b.Schema, a7GroupBlock(group))

	// Phase 1+2: the union of both sides, tagged, sorted by (key, tag).
	var w sim.RegionID
	if cache == nil {
		w = host.FreshRegion("alg7.w", int(oblivious.NextPow2(n)))
		if err := codec.wrapSide(t, w, 0, a, a7TagA); err != nil {
			return Result{}, use, err
		}
		if err := codec.wrapSide(t, w, a.N, b, a7TagB); err != nil {
			return Result{}, use, err
		}
		if err := oblivious.SortSpan(group, w, 0, n, codec.b, codec.lessKeyTag); err != nil {
			return Result{}, use, err
		}
	} else {
		halfM := a7HalfM(a.N, b.N)
		w = host.FreshRegion("alg7.w", int(2*halfM))
		use.TriedA, use.HitA, err = codec.buildSortedHalf(group, w, 0, halfM, a, a7TagA, cache, keyA)
		if err != nil {
			return Result{}, use, err
		}
		use.TriedB, use.HitB, err = codec.buildSortedHalf(group, w, halfM, halfM, b, a7TagB, cache, keyB)
		if err != nil {
			return Result{}, use, err
		}
		if err := oblivious.MergeHalves(group, w, 2*halfM, codec.b, codec.lessKeyTag); err != nil {
			return Result{}, use, err
		}
	}

	// Phases 3–5: index scans, per-side expansion, alignment, stitch.
	out, err := codec.tail(group, w, n, outSchema)
	if err != nil {
		return Result{}, use, err
	}
	return Result{Output: out, OutputLen: out.N, Stats: sumStats(cops)}, use, nil
}

// join7Begin is Algorithm 7's prologue: admissibility (device count, sizes,
// an orderable equality predicate), the output schema, and fresh counters
// on every device. Memory is granted phase by phase: the hold slot around
// the passes that keep it (holding), 2B cells inside each network.
func join7Begin(cops []*sim.Coprocessor, a, b sim.Table, pred *relation.Equi) (*relation.Schema, error) {
	switch {
	case len(cops) == 0:
		return nil, fmt.Errorf("%w: no coprocessors", errInvalid)
	case a.N < 0 || b.N < 0:
		return nil, fmt.Errorf("%w: negative relation size", errInvalid)
	case pred == nil:
		return nil, fmt.Errorf("%w: alg7 needs an equality predicate", errInvalid)
	case !pred.Orderable():
		return nil, fmt.Errorf("%w: alg7 needs an orderable join attribute", errInvalid)
	}
	outSchema, err := outputSchema2(a, b)
	if err != nil {
		return nil, err
	}
	for _, c := range cops {
		c.ResetStats()
	}
	return outSchema, nil
}

// holding runs a pass that keeps the hold slot inside T with the slot
// granted on t, and releases it after.
func holding(t *sim.Coprocessor, pass func() error) error {
	release, err := t.Grant(a7Memory)
	if err != nil {
		return err
	}
	defer release()
	return pass()
}

// a7Block is the block size of Algorithm 7's networks at device memory m,
// where m ≤ 0 is the unbounded default of sim.Config.
func a7Block(m int64) int64 {
	if m <= 0 {
		return oblivious.MaxBlock
	}
	return oblivious.BlockFor(m)
}

// a7GroupBlock is the block size a device group runs the networks at: the
// one its smallest memory M allows, the same B the table row prices. It
// reads the configured M, not the free memory, so B stays a function of the
// public M; a device whose memory is already granted away is refused by the
// networks' 2B Grant before the first transfer.
func a7GroupBlock(group []*sim.Coprocessor) int64 {
	m := group[0].Memory()
	for _, c := range group[1:] {
		m = min(m, c.Memory())
	}
	return a7Block(int64(m))
}

// join7Empty is the join of two empty relations: an empty output region and
// no transfers.
func join7Empty(cops []*sim.Coprocessor, outSchema *relation.Schema) Result {
	out := cops[0].Host().FreshRegion("alg7.out", 0)
	return Result{Output: sim.Table{Region: out, N: 0, Schema: outSchema}, Stats: sumStats(cops)}
}

// sumStats adds the cost counters of every device in a fleet.
func sumStats(cops []*sim.Coprocessor) sim.Stats {
	var st sim.Stats
	for _, c := range cops {
		st.Add(c.Stats())
	}
	return st
}

// tail runs phases 3–5 of Algorithm 7 over a key-sorted union held in the
// first n cells of w: the three index scans, both side expansions, the B
// alignment sort, and the stitch. Its schedule is identical however the
// sorted union was produced, a pure function of (n, S, P). Scans and stitch
// run on the group's first device and the alignment sort on the whole
// group; the two sides expand concurrently on the group's halves (halves of
// a power of two are powers of two), or A then B on a one-device group.
func (c *a7Codec) tail(group []*sim.Coprocessor, w sim.RegionID, n int64, outSchema *relation.Schema) (sim.Table, error) {
	t, host := group[0], group[0].Host()
	var s int64
	err := holding(t, func() (err error) {
		s, err = c.indexScans(t, w, n)
		return err
	})
	if err != nil {
		return sim.Table{}, err
	}
	out := sim.Table{Region: host.FreshRegion("alg7.out", int(s)), N: s, Schema: outSchema}
	if s == 0 {
		return out, nil
	}

	// Both sides' scratch regions are allocated here, in fixed order, before
	// the sides fork: region ids are part of every traced access and must
	// not follow goroutine scheduling.
	sides := [2]struct {
		tag    byte
		group  []*sim.Coprocessor
		sx, ex sim.RegionID
	}{{tag: a7TagA, group: group}, {tag: a7TagB, group: group}}
	if half := len(group) / 2; half > 0 {
		sides[0].group, sides[1].group = group[:half], group[half:]
	}
	// The expansions use S cells of ex; B's alignment sort pads its side to
	// the power-of-two envelope.
	for i, name := range [2]string{"alg7.ea", "alg7.eb"} {
		sides[i].sx = host.FreshRegion(name+".c", int(n))
		sides[i].ex = host.FreshRegion(name, int(oblivious.NextPow2(s)))
	}
	expand := func(i int64) error {
		sd := sides[i]
		return c.expandSide(sd.group, w, sd.sx, sd.ex, n, s, sd.tag)
	}
	if len(group) > 1 {
		err = oblivious.ForEach(2, expand)
	} else if err = expand(0); err == nil {
		err = expand(1)
	}
	if err != nil {
		return sim.Table{}, err
	}
	ea, eb := sides[0].ex, sides[1].ex
	if err := oblivious.SortSpan(group, eb, 0, s, c.b, c.lessDest); err != nil {
		return sim.Table{}, err
	}
	return out, c.stitch(t, out.Region, ea, eb, s)
}

// Join7Transfers is the exact transfer count of this implementation
// without a cache, summed over the devices, at block size B = MaxBlock —
// that is, at every device memory M ≥ 64, the unbounded default included.
// At a smaller M the algorithm table's row prices Algorithm 7 at M's own
// block size (Algorithm.Transfers).
func Join7Transfers(aN, bN, s int64) int64 {
	return join7Transfers(aN, bN, s, oblivious.MaxBlock)
}

// join7Transfers is the uncached closed form at block size b:
//
//	2n + Sort(n, B)                             union build, key sort
//	+ join7TailTransfers(n, S, B)               scans, expansion, stitch
//
// with n = |A|+|B| and Sort the block odd-even mergesort cost. The sort
// terms dominate; compare Join5Transfers, whose every scan reads all of L.
func join7Transfers(aN, bN, s, b int64) int64 {
	n := aN + bN
	if n == 0 {
		return 0
	}
	return 2*n + oblivious.SortTransfers(n, b) + join7TailTransfers(n, s, b)
}

// join7TailTransfers is the exact transfer count of everything after the
// key-sorted union exists, shared by both front halves:
//
//	6n                                                  index scans
//	+ 2·[2n + Compact(n, B) + 2t + (S−t) + Dist(S, B) + 2S]   per-side expansion
//	+ Sort(S, B) + 3S                                   B alignment and stitch
//
// with t = min(n, S), and Compact and Dist the compaction and distribution
// network costs; with S = 0 only the scans run.
func join7TailTransfers(n, s, b int64) int64 {
	if s == 0 {
		return 6 * n
	}
	tx := min64(n, s)
	side := 2*n + oblivious.CompactTransfers(n, b) + 2*tx + (s - tx) +
		oblivious.DistributeTransfers(s, b) + 2*s
	return 6*n + 2*side + oblivious.SortTransfers(s, b) + 3*s
}

// --- Algorithm 7 working cells ---

// A working cell is tag || f0 || f1 || f2 || f3 || f4 || payload with u64
// fields and the tuple encoding padded to the larger of the two schemas, so
// every cell of every intermediate array has identical length (Fixed Size
// principle, §3.4.3). The fields are reused phase by phase:
//
//	after the index scans   f0 = in-group occurrence, f1 = c_A (B rows),
//	                        f2 = c_B, f3 = group output base g
//	after the side rewrite  f0 = destination slot, f1/f2/f3 = c_A/c_B/g,
//	                        f4 = rank among the side's kept rows
//	after the B fill        f0 = final aligned slot g + i·c_B + j
//
// The cell length is a function of the two schemas, and the sort cache
// stores working cells: an entry of another length — one persisted by a
// build with a different header — is a miss.
const (
	a7TagA byte = 0x00 // cell carries an A tuple
	a7TagB byte = 0x01 // cell carries a B tuple
	a7TagE byte = 0xFF // empty filler cell (discarded by keep logic)

	a7Hdr = 1 + 5*8

	// a7Memory is the resident state the linear passes Grant: the
	// fill-forward hold slot. The scan accumulators (previous key, group
	// counters) ride in the same slot's budget; nothing else outlives a
	// batch. One cell, independent of every size, held only by the index
	// scans, the side rewrite and the fill — the networks grant their own 2B
	// in its place, so Algorithm 7 runs at any device memory M ≥ 1.
	a7Memory = 1
)

func a7F(c []byte, k int) int64       { return int64(binary.BigEndian.Uint64(c[1+8*k:])) }
func a7SetF(c []byte, k int, v int64) { binary.BigEndian.PutUint64(c[1+8*k:], uint64(v)) }

// a7Codec builds, parses and orders working cells for one join, and carries
// the block size b its networks run at.
type a7Codec struct {
	sa, sb     *relation.Schema
	keyA, keyB [2]int // the join attribute's [from, to) within a cell, per side
	pred       *relation.Equi
	cell       int
	b          int64
}

func newA7Codec(pred *relation.Equi, sa, sb *relation.Schema, b int64) *a7Codec {
	keyAt := func(s *relation.Schema, i int) [2]int {
		from, to := s.Span(i)
		return [2]int{a7Hdr + from, a7Hdr + to}
	}
	return &a7Codec{sa: sa, sb: sb,
		keyA: keyAt(sa, pred.KeyIndexA()), keyB: keyAt(sb, pred.KeyIndexB()), pred: pred,
		cell: a7Hdr + max(sa.TupleSize(), sb.TupleSize()), b: b}
}

// wrap builds a working cell around a side's encoded tuple.
func (c *a7Codec) wrap(tag byte, enc []byte) []byte {
	out := make([]byte, c.cell)
	out[0] = tag
	copy(out[a7Hdr:], enc)
	return out
}

// wrapSide copies a side's rows into w from cell lo on as working cells.
func (c *a7Codec) wrapSide(t *sim.Coprocessor, w sim.RegionID, lo int64, side sim.Table, tag byte) error {
	return t.TransformRange(w, lo, side.Region, 0, side.N, func(_ int64, pt []byte) ([]byte, error) {
		return c.wrap(tag, pt), nil
	})
}

// empty builds a filler cell of the same size as a real one.
func (c *a7Codec) empty() []byte {
	out := make([]byte, c.cell)
	out[0] = a7TagE
	return out
}

// row views the row a real working cell carries.
func (c *a7Codec) row(cell []byte) (relation.Row, error) {
	switch cell[0] {
	case a7TagA:
		return c.sa.Row(cell[a7Hdr : a7Hdr+c.sa.TupleSize()])
	case a7TagB:
		return c.sb.Row(cell[a7Hdr : a7Hdr+c.sb.TupleSize()])
	default:
		return relation.Row{}, fmt.Errorf("core: alg7 cell has no tuple (tag %#x)", cell[0])
	}
}

// key returns the encoded join attribute of a real working cell in place,
// or an error for a cell that carries no tuple.
func (c *a7Codec) key(cell []byte) ([]byte, error) {
	switch cell[0] {
	case a7TagA:
		return cell[c.keyA[0]:c.keyA[1]], nil
	case a7TagB:
		return cell[c.keyB[0]:c.keyB[1]], nil
	default:
		return nil, fmt.Errorf("core: alg7 cell has no tuple (tag %#x)", cell[0])
	}
}

// lessKeyTag orders working cells by (join key, tag): equal keys group
// together with the A rows first. Cells without a tuple sort last, like
// decoys.
func (c *a7Codec) lessKeyTag(x, y []byte) bool {
	kx, errX := c.key(x)
	ky, errY := c.key(y)
	if errX != nil || errY != nil {
		return errX == nil
	}
	if r := c.pred.CompareKeys(kx, ky); r != 0 {
		return r < 0
	}
	return x[0] < y[0]
}

// lessDest orders real cells by destination slot, empties last.
func (c *a7Codec) lessDest(x, y []byte) bool {
	xe, ye := x[0] == a7TagE, y[0] == a7TagE
	if xe || ye {
		return !xe && ye
	}
	return a7F(x, 0) < a7F(y, 0)
}

// indexScans runs the three multiplicity scans over the key-sorted union
// and returns the exact join size S. Scan one (forward) numbers every row
// within its (key, side) group and gives B rows their group's c_A (all A
// rows of a group precede its B rows). Scan two (backward) gives every row
// its group's c_B. Scan three (forward) gives every row its group's first
// output slot g and accumulates S = Σ c_A·c_B. Each scan reads and rewrites
// every cell exactly once; the group state lives inside T.
func (c *a7Codec) indexScans(t *sim.Coprocessor, w sim.RegionID, n int64) (int64, error) {
	var (
		have bool
		prev []byte // the previous cell's encoded key
		cntA int64
		cntB int64
	)
	step := func(cell []byte) (newGroup bool, err error) {
		key, err := c.key(cell)
		if err != nil {
			return false, err
		}
		t.ChargeCompare()
		newGroup = !have || c.pred.CompareKeys(prev, key) != 0
		prev, have = append(prev[:0], key...), true
		return newGroup, nil
	}

	if err := t.TransformRange(w, 0, w, 0, n, func(_ int64, pt []byte) ([]byte, error) {
		newGroup, err := step(pt)
		if err != nil {
			return nil, err
		}
		if newGroup {
			cntA, cntB = 0, 0
		}
		if pt[0] == a7TagA {
			a7SetF(pt, 0, cntA)
			cntA++
		} else {
			a7SetF(pt, 0, cntB)
			a7SetF(pt, 1, cntA)
			cntB++
		}
		return pt, nil
	}); err != nil {
		return 0, err
	}

	have = false
	var groupCB int64
	if err := a7ScanBackward(t, w, n, func(_ int64, pt []byte) ([]byte, error) {
		newGroup, err := step(pt)
		if err != nil {
			return nil, err
		}
		if newGroup {
			groupCB = 0
			if pt[0] == a7TagB {
				groupCB = a7F(pt, 0) + 1 // the last B row carries j = c_B − 1
			}
		}
		a7SetF(pt, 2, groupCB)
		return pt, nil
	}); err != nil {
		return 0, err
	}

	have = false
	var base, groupCA, groupSize int64
	if err := t.TransformRange(w, 0, w, 0, n, func(_ int64, pt []byte) ([]byte, error) {
		newGroup, err := step(pt)
		if err != nil {
			return nil, err
		}
		if newGroup {
			base += groupCA * groupSize
			groupCA, groupSize = 0, a7F(pt, 2)
		}
		if pt[0] == a7TagA {
			groupCA++
		}
		a7SetF(pt, 3, base)
		return pt, nil
	}); err != nil {
		return 0, err
	}
	return base + groupCA*groupSize, nil
}

// expandSide extracts one side of the indexed union and expands it to the
// S output slots of ex, through the n-cell scratch array sx: rewrite into
// (destination, rank, keep) form, compact the kept rows to a rank-preserving
// prefix, route them to their destinations with the distribution network,
// and duplicate them with the fill-forward scan. The two networks run over
// the side's device group, the linear passes on its first device.
func (c *a7Codec) expandSide(group []*sim.Coprocessor, w, sx, ex sim.RegionID, n, s int64, tag byte) error {
	t := group[0]

	// Rewrite: keep exactly the rows of this side whose group joins at all;
	// an A row with occurrence i goes to slot g + i·c_B, a B row with
	// occurrence j to slot g + j·c_A (B-major, realigned after the fill).
	// Kept rows are stamped with their rank, dropped rows become fillers;
	// the keep decision and the rank counter stay inside T.
	var rank int64
	if err := holding(t, func() error {
		return t.TransformRange(sx, 0, w, 0, n, func(_ int64, pt []byte) ([]byte, error) {
			t.ChargeCompare()
			keep, dest := false, int64(0)
			if pt[0] == tag {
				if tag == a7TagA {
					cb := a7F(pt, 2)
					keep, dest = cb > 0, a7F(pt, 3)+a7F(pt, 0)*cb
				} else {
					ca := a7F(pt, 1)
					keep, dest = ca > 0, a7F(pt, 3)+a7F(pt, 0)*ca
				}
			}
			if !keep {
				return c.empty(), nil
			}
			a7SetF(pt, 0, dest)
			a7SetF(pt, 4, rank)
			rank++
			return pt, nil
		})
	}); err != nil {
		return err
	}

	// Compact: kept destinations strictly increase in union order, so moving
	// the kept rows to a rank-preserving prefix leaves them in destination
	// order — the distribution network's precondition.
	if err := oblivious.Compact(group, sx, n, c.b, func(pt []byte) (bool, int64) {
		return pt[0] != a7TagE, a7F(pt, 4)
	}); err != nil {
		return err
	}

	// Expand into the output-sized array: copy the compacted prefix (at
	// most min(n, S) kept rows), fill up to S with fillers, route, duplicate.
	tx := min64(n, s)
	if err := t.TransformRange(ex, 0, sx, 0, tx, func(_ int64, pt []byte) ([]byte, error) {
		return pt, nil
	}); err != nil {
		return err
	}
	if tx < s {
		pads := make([][]byte, s-tx)
		filler := c.empty()
		for i := range pads {
			pads[i] = filler
		}
		if err := t.PutRange(ex, tx, pads); err != nil {
			return err
		}
	}
	if err := oblivious.Distribute(group, ex, s, c.b, func(pt []byte) (bool, int64) {
		return pt[0] != a7TagE, a7F(pt, 0)
	}); err != nil {
		return err
	}

	isReal := func(pt []byte) bool { return pt[0] != a7TagE }
	var fill func(k int64, pt, held []byte) ([]byte, error)
	if tag == a7TagA {
		// A fills in final order already: every slot of the group's i-th
		// stripe takes a copy of A's i-th row.
		fill = func(_ int64, _, held []byte) ([]byte, error) { return held, nil }
	} else {
		// B fills in B-major order: the cell at slot k is copy number
		// i = k − g − j·c_A of B row j, destined for final slot g + i·c_B + j.
		var buf []byte // reused scratch for the rewritten copy
		fill = func(k int64, _, held []byte) ([]byte, error) {
			g, ca, cb := a7F(held, 3), a7F(held, 1), a7F(held, 2)
			j := (a7F(held, 0) - g) / ca
			i := k - g - j*ca
			buf = append(buf[:0], held...)
			a7SetF(buf, 0, g+i*cb+j)
			return buf, nil
		}
	}
	return holding(t, func() error { return oblivious.FillForward(t, ex, s, isReal, fill) })
}

// stitch pairs the aligned expansions into oTuple join rows: slot k of the
// output is the real join row (A_k ⋈ B_k). All S cells are real — the exact
// output contract of the Chapter 5 algorithms.
func (c *a7Codec) stitch(t *sim.Coprocessor, out sim.RegionID, ea, eb sim.RegionID, s int64) error {
	for off := int64(0); off < s; off += sim.TransferBatch {
		chunk := min64(sim.TransferBatch, s-off)
		ptsA, err := t.GetRange(ea, off, chunk)
		if err != nil {
			return err
		}
		ptsB, err := t.GetRange(eb, off, chunk)
		if err != nil {
			return err
		}
		rows := make([][]byte, chunk)
		for k := int64(0); k < chunk; k++ {
			ra, err := c.row(ptsA[k])
			if err != nil {
				return fmt.Errorf("core: alg7 slot %d: %w", off+k, err)
			}
			rb, err := c.row(ptsB[k])
			if err != nil {
				return fmt.Errorf("core: alg7 slot %d: %w", off+k, err)
			}
			rows[k] = realCell(ra, rb)
		}
		if err := t.PutRange(out, off, rows); err != nil {
			return err
		}
	}
	return nil
}

// a7ScanBackward is the descending counterpart of an in-place
// TransformRange: it reads and rewrites cells n−1 … 0 in TransferBatch
// windows (one batched get and one batched put per window), so the access
// schedule depends only on n. fn may mutate pt and return it.
func a7ScanBackward(t *sim.Coprocessor, region sim.RegionID, n int64, fn func(idx int64, pt []byte) ([]byte, error)) error {
	idx := make([]int64, 0, sim.TransferBatch)
	var pts [][]byte
	outs := make([][]byte, 0, sim.TransferBatch)
	for hi := n; hi > 0; {
		lo := hi - sim.TransferBatch
		if lo < 0 {
			lo = 0
		}
		idx = idx[:0]
		for i := hi - 1; i >= lo; i-- {
			idx = append(idx, i)
		}
		var err error
		pts, err = t.GetBatchInto(pts, region, idx)
		if err != nil {
			return err
		}
		outs = outs[:0]
		for k, i := range idx {
			out, err := fn(i, pts[k])
			if err != nil {
				return err
			}
			outs = append(outs, out)
		}
		if err := t.PutBatch(region, idx, outs); err != nil {
			return err
		}
		hi = lo
	}
	return nil
}

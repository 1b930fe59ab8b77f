package oblivious

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"ppj/internal/sim"
)

// blockSizes are the block sizes the block tests run at beside the cell
// networks' b = 1, which the schedule lockfile pins line for line.
var blockSizes = []int64{2, 4, MaxBlock}

// blockRun loads vals into a region over a fresh p-device group, runs net
// on it, and returns the summed transfers, each device's trace digest, and
// the first `read` cells decoded (read back after the digests are taken).
func blockRun(t *testing.T, p int, vals []uint64, read int64, net func([]*sim.Coprocessor, sim.RegionID) error) (int64, []uint64, []uint64) {
	t.Helper()
	h := sim.NewHost(0)
	cops := spanFleet(t, h, p)
	id := h.MustCreateRegion("blk", len(vals))
	for i, v := range vals {
		if err := cops[0].Put(id, int64(i), encodeInt(v)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cops {
		c.ResetStats()
	}
	if err := net(cops, id); err != nil {
		t.Fatal(err)
	}
	tr, digests := groupTransfers(cops), make([]uint64, p)
	for w, c := range cops {
		digests[w] = c.Trace().Digest()
	}
	return tr, digests, readInts(t, cops[0], id, read)
}

// blockContents returns three contents of n cells for one schedule: many
// duplicates, distinct values, and a descending run.
func blockContents(rng *rand.Rand, n int64) [][]uint64 {
	dups, distinct, desc := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for i := range n {
		dups[i] = uint64(rng.IntN(5))
		distinct[i] = rng.Uint64() >> 1
		desc[i] = uint64(n - i)
	}
	return [][]uint64{dups, distinct, desc}
}

// TestBlockSortSpanProperty sorts spans at block sizes 2, 4 and 32 over
// groups of one, two and four devices, n including non-powers of two and
// inputs with duplicates: the span comes out ascending, the summed
// transfers are SortTransfers(n, b), and every content leaves one
// per-device digest vector.
func TestBlockSortSpanProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 23))
	for _, b := range blockSizes {
		for _, p := range []int{1, 2, 4} {
			for _, n := range []int64{2, 3, 5, 8, 13, 37, 64, 100, 129} {
				for _, lo := range []int64{0, 7} {
					name := fmt.Sprintf("b=%d P=%d n=%d lo=%d", b, p, n, lo)
					var want []uint64
					for _, content := range blockContents(rng, n) {
						vals := append(make([]uint64, lo), content...)
						vals = append(vals, make([]uint64, NextPow2(n)-n)...)
						tr, digests, got := blockRun(t, p, vals, lo+n, func(cops []*sim.Coprocessor, id sim.RegionID) error {
							return SortSpan(cops, id, lo, n, b, intLess)
						})
						if w := SortTransfers(n, b); tr != w {
							t.Fatalf("%s: %d transfers, want SortTransfers = %d", name, tr, w)
						}
						sorted := slices.Clone(content)
						slices.Sort(sorted)
						if !slices.Equal(got[lo:], sorted) {
							t.Fatalf("%s: span %v, want %v", name, got[lo:], sorted)
						}
						if want == nil {
							want = digests
						} else if !slices.Equal(digests, want) {
							t.Fatalf("%s: per-device digests %#x depend on contents (first content left %#x)", name, digests, want)
						}
					}
				}
			}
		}
	}
}

// TestBlockMergeHalvesProperty merges two sorted halves with duplicates at
// block sizes 2, 4 and 32 over groups of one, two and four devices: the
// result is ascending, the summed transfers are MergeHalvesTransfers(m, b),
// and every content leaves one per-device digest vector.
func TestBlockMergeHalvesProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 31))
	for _, b := range blockSizes {
		for _, p := range []int{1, 2, 4} {
			for _, m := range []int64{2, 4, 8, 64, 128, 256} {
				name := fmt.Sprintf("b=%d P=%d m=%d", b, p, m)
				var want []uint64
				for _, vals := range blockContents(rng, m) {
					slices.Sort(vals[:m/2])
					slices.Sort(vals[m/2:])
					tr, digests, got := blockRun(t, p, vals, m, func(cops []*sim.Coprocessor, id sim.RegionID) error {
						return MergeHalves(cops, id, m, b, intLess)
					})
					if w := MergeHalvesTransfers(m, b); tr != w {
						t.Fatalf("%s: %d transfers, want MergeHalvesTransfers = %d", name, tr, w)
					}
					slices.Sort(vals)
					if !slices.Equal(got, vals) {
						t.Fatalf("%s: merged %v, want %v", name, got, vals)
					}
					if want == nil {
						want = digests
					} else if !slices.Equal(digests, want) {
						t.Fatalf("%s: per-device digests %#x depend on contents (first content left %#x)", name, digests, want)
					}
				}
			}
		}
	}
}

// TestMergeSplitZeroOneExhaustive is the 0-1 principle made a test: at
// small m, every pair of sorted 0-1 halves merges to a sorted run at every
// block size the merge admits, and every 0-1 input of eight cells sorts.
func TestMergeSplitZeroOneExhaustive(t *testing.T) {
	zeroOne := func(zeros, n int64) []uint64 {
		out := make([]uint64, n)
		for i := zeros; i < n; i++ {
			out[i] = 1
		}
		return out
	}
	for _, m := range []int64{4, 8, 16, 32} {
		h := m / 2
		for b := int64(1); b <= h; b *= 2 {
			for za := int64(0); za <= h; za++ {
				for zb := int64(0); zb <= h; zb++ {
					vals := append(zeroOne(za, h), zeroOne(zb, h)...)
					_, _, got := blockRun(t, 1, vals, m, func(cops []*sim.Coprocessor, id sim.RegionID) error {
						return MergeHalves(cops, id, m, b, intLess)
					})
					if want := zeroOne(za+zb, m); !slices.Equal(got, want) {
						t.Fatalf("m=%d b=%d halves 0^%d1^%d | 0^%d1^%d: merged %v", m, b, za, h-za, zb, h-zb, got)
					}
				}
			}
		}
	}
	const n = 8
	for b := int64(1); b <= n/2; b *= 2 {
		for mask := range 1 << n {
			vals := make([]uint64, n)
			var zeros int64
			for i := range vals {
				vals[i] = uint64(mask >> i & 1)
				zeros += 1 - int64(vals[i])
			}
			_, _, got := blockRun(t, 1, vals, n, func(cops []*sim.Coprocessor, id sim.RegionID) error {
				return SortSpan(cops, id, 0, n, b, intLess)
			})
			if want := zeroOne(zeros, n); !slices.Equal(got, want) {
				t.Fatalf("b=%d input %08b: sorted %v", b, mask, got)
			}
		}
	}
}

// expRun loads expansion cells over a fresh p-device group, runs net, and
// returns the summed transfers, the per-device digests and the region.
func expRun(t *testing.T, p int, cells [][]byte, net func([]*sim.Coprocessor, sim.RegionID) error) (int64, []uint64, [][]byte) {
	t.Helper()
	h := sim.NewHost(0)
	cops := spanFleet(t, h, p)
	id := h.MustCreateRegion("exp", len(cells))
	for i, c := range cells {
		if err := cops[0].Put(id, int64(i), c); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cops {
		c.ResetStats()
	}
	if err := net(cops, id); err != nil {
		t.Fatal(err)
	}
	tr, digests := groupTransfers(cops), make([]uint64, p)
	for w, c := range cops {
		digests[w] = c.Trace().Digest()
	}
	out, err := cops[0].GetRange(id, 0, int64(len(cells)))
	if err != nil {
		t.Fatal(err)
	}
	return tr, digests, out
}

// TestBlockDistributeWindowPlaces routes every strictly increasing
// destination pattern of m = 5…8 cells and random sparse patterns of
// larger m, powers of two or not, at block sizes 2, 4 and 32 over groups
// of one, two and four devices: each real cell lands exactly at its
// destination, every other slot holds a filler, the summed transfers are
// DistributeTransfers(m, b), and every pattern of one (m, b, P) leaves one
// per-device digest vector.
func TestBlockDistributeWindowPlaces(t *testing.T) {
	check := func(t *testing.T, b int64, p int, m int64, dests []int64, want *[]uint64) {
		t.Helper()
		cells := make([][]byte, m)
		for i := range m {
			cells[i] = expCell(false, 0, -1)
			if i < int64(len(dests)) {
				cells[i] = expCell(true, dests[i], i)
			}
		}
		tr, digests, out := expRun(t, p, cells, func(cops []*sim.Coprocessor, id sim.RegionID) error {
			return Distribute(cops, id, m, b, expRoute)
		})
		if w := DistributeTransfers(m, b); tr != w {
			t.Fatalf("b=%d P=%d m=%d: %d transfers, want %d", b, p, m, tr, w)
		}
		at := make(map[int64]int64, len(dests))
		for k, d := range dests {
			at[d] = int64(k)
		}
		for i, pt := range out {
			real, _ := expRoute(pt)
			id, wantReal := at[int64(i)]
			if real != wantReal || real && expID(pt) != id {
				t.Fatalf("b=%d P=%d m=%d dests=%v: slot %d holds real=%v id=%d", b, p, m, dests, i, real, expID(pt))
			}
		}
		if *want == nil {
			*want = digests
		} else if !slices.Equal(digests, *want) {
			t.Fatalf("b=%d P=%d m=%d: per-device digests %#x depend on the pattern (first left %#x)", b, p, m, digests, *want)
		}
	}
	rng := rand.New(rand.NewPCG(37, 41))
	for _, b := range blockSizes {
		for _, p := range []int{1, 2, 4} {
			for m := int64(5); m <= 8; m++ {
				var want []uint64
				var rec func(dests []int64, next int64)
				rec = func(dests []int64, next int64) {
					check(t, b, p, m, dests, &want)
					for d := max(next, int64(len(dests))); d < m; d++ {
						rec(append(dests, d), d+1)
					}
				}
				rec(nil, 0)
			}
			for _, m := range []int64{16, 33, 64, 100, 256} {
				var want []uint64
				for trial := 0; trial < 6; trial++ {
					var dests []int64
					density := 1 + rng.IntN(3)
					for d := int64(0); d < m; d++ {
						if int64(len(dests)) <= d && rng.IntN(4) < density {
							dests = append(dests, d)
						}
					}
					check(t, b, p, m, dests, &want)
				}
			}
		}
	}
}

// TestBlockCompactWindowIsStableFilter is TestCompactIsStableFilter at
// block sizes 2, 4 and 32: for random keep masks and their complements,
// the prefix holds exactly the kept cells in order, the rest the dropped
// ones, the summed transfers are CompactTransfers(n, b), and every mask
// leaves one per-device digest vector.
func TestBlockCompactWindowIsStableFilter(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 47))
	for _, b := range blockSizes {
		for _, p := range []int{1, 2, 4} {
			for _, n := range []int64{0, 1, 2, 3, 7, 31, 63, 64, 65, 200} {
				var want []uint64
				for trial := 0; trial < 3; trial++ {
					keep, flip := make([]bool, n), make([]bool, n)
					density := rng.IntN(5)
					for i := range keep {
						keep[i] = rng.IntN(4) < density
						flip[i] = !keep[i]
					}
					for _, mask := range [][]bool{keep, flip} {
						cells := make([][]byte, n)
						var kept []int64
						for i := range n {
							cells[i] = expCell(mask[i], int64(len(kept)), i)
							if mask[i] {
								kept = append(kept, i)
							}
						}
						tr, digests, out := expRun(t, p, cells, func(cops []*sim.Coprocessor, id sim.RegionID) error {
							return Compact(cops, id, n, b, expRoute)
						})
						if w := CompactTransfers(n, b); tr != w {
							t.Fatalf("b=%d P=%d n=%d: %d transfers, want %d", b, p, n, tr, w)
						}
						for i, pt := range out {
							real, _ := expRoute(pt)
							if wantReal := i < len(kept); real != wantReal || real && expID(pt) != kept[i] {
								t.Fatalf("b=%d P=%d n=%d mask=%v: slot %d holds real=%v id=%d", b, p, n, mask, i, real, expID(pt))
							}
						}
						if want == nil {
							want = digests
						} else if !slices.Equal(digests, want) {
							t.Fatalf("b=%d P=%d n=%d: per-device digests %#x depend on the mask (first left %#x)", b, p, n, digests, want)
						}
					}
				}
			}
		}
	}
}

// TestBlockWindowInvalidInputRunsFullSchedule feeds Compact and Distribute
// inputs that break their preconditions — every cell real with colliding
// or far-off slots — and checks the window pass neither fails nor stops
// early: the transfers are the closed form, the per-device digests are a
// valid input's, and the region holds a permutation of what it held.
func TestBlockWindowInvalidInputRunsFullSchedule(t *testing.T) {
	const n = 37
	nets := map[string]func(b int64) func([]*sim.Coprocessor, sim.RegionID) error{
		"Compact": func(b int64) func([]*sim.Coprocessor, sim.RegionID) error {
			return func(cops []*sim.Coprocessor, id sim.RegionID) error { return Compact(cops, id, n, b, expRoute) }
		},
		"Distribute": func(b int64) func([]*sim.Coprocessor, sim.RegionID) error {
			return func(cops []*sim.Coprocessor, id sim.RegionID) error { return Distribute(cops, id, n, b, expRoute) }
		},
	}
	inputs := map[string]func(i int64) []byte{
		"valid":     func(i int64) []byte { return expCell(i < 3, i, i) },
		"collide":   func(i int64) []byte { return expCell(true, 0, i) },
		"far":       func(i int64) []byte { return expCell(true, n-1-i+1000*(i%3), i) },
		"backwards": func(i int64) []byte { return expCell(i%2 == 0, n-1-i, i) },
	}
	for name, net := range nets {
		for _, b := range blockSizes {
			for _, p := range []int{1, 2} {
				var want []uint64
				for _, input := range []string{"valid", "collide", "far", "backwards"} {
					cells := make([][]byte, n)
					for i := range cells {
						cells[i] = inputs[input](int64(i))
					}
					tr, digests, out := expRun(t, p, cells, net(b))
					if w := DistributeTransfers(n, b); tr != w {
						t.Fatalf("%s b=%d P=%d %s: %d transfers, want %d", name, b, p, input, tr, w)
					}
					if want == nil {
						want = digests
					} else if !slices.Equal(digests, want) {
						t.Fatalf("%s b=%d P=%d %s: digests %#x, a valid input's are %#x", name, b, p, input, digests, want)
					}
					ids := make([]int64, 0, n)
					for _, pt := range out {
						ids = append(ids, expID(pt))
					}
					slices.Sort(ids)
					for i, id := range ids {
						if id != int64(i) {
							t.Fatalf("%s b=%d P=%d %s: output cell ids %v are not a permutation of the input's", name, b, p, input, ids)
						}
					}
				}
			}
		}
	}
}

// TestBlockNetworksGrantTwoB pins the memory rule: with b > 1 every block
// network grants 2b cells on every device of its group, is refused before
// its first transfer when one device lacks them (leaving every device's
// memory as it was), and releases the grants when it returns; b = 1 runs
// in the uncharged staging at any memory.
func TestBlockNetworksGrantTwoB(t *testing.T) {
	nets := map[string]func([]*sim.Coprocessor, sim.RegionID, int64) error{
		"SortSpan":    func(c []*sim.Coprocessor, id sim.RegionID, b int64) error { return SortSpan(c, id, 0, 16, b, intLess) },
		"MergeHalves": func(c []*sim.Coprocessor, id sim.RegionID, b int64) error { return MergeHalves(c, id, 16, b, intLess) },
		"Compact":     func(c []*sim.Coprocessor, id sim.RegionID, b int64) error { return Compact(c, id, 16, b, expRoute) },
		"Distribute":  func(c []*sim.Coprocessor, id sim.RegionID, b int64) error { return Distribute(c, id, 16, b, expRoute) },
	}
	for name, net := range nets {
		for _, short := range []int{0, 1} {
			h := sim.NewHost(0)
			cops := make([]*sim.Coprocessor, 2)
			for i := range cops {
				mem := 8
				if i == short {
					mem = 7
				}
				var err error
				if cops[i], err = sim.NewCoprocessor(h, sim.Config{Memory: mem, Sealer: sim.PlainSealer{}, Seed: uint64(i) + 1}); err != nil {
					t.Fatal(err)
				}
			}
			id := h.MustCreateRegion("g", 16)
			for i := range int64(16) {
				if err := cops[0].Put(id, i, expCell(false, 0, i)); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range cops {
				c.ResetStats()
			}
			if err := net(cops, id, 4); err == nil {
				t.Errorf("%s: b=4 ran with device %d holding 7 < 8 cells", name, short)
			}
			for i, c := range cops {
				if c.Stats().Transfers() != 0 || c.MemoryFree() != c.Memory() {
					t.Errorf("%s: refused run left device %d with %d transfers and %d of %d cells free",
						name, i, c.Stats().Transfers(), c.MemoryFree(), c.Memory())
				}
			}
			if err := net(cops, id, 2); err != nil {
				t.Errorf("%s: b=2 refused on devices of 7 and 8 cells: %v", name, err)
			}
			if err := net(cops[short:short+1], id, 1); err != nil {
				t.Errorf("%s: b=1 refused: %v", name, err)
			}
			for i, c := range cops {
				if c.MemoryFree() != c.Memory() {
					t.Errorf("%s: device %d kept %d cells granted", name, i, c.Memory()-c.MemoryFree())
				}
			}
		}
	}
}

// TestBlockForMemory pins the block size a device memory yields: the
// largest power of two B ≤ MaxBlock with 2B ≤ M, and 1 below M = 4.
func TestBlockForMemory(t *testing.T) {
	for _, c := range []struct{ m, b int64 }{
		{0, 1}, {1, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 4}, {15, 4}, {16, 8}, {63, 16}, {64, 32}, {1 << 40, 32},
	} {
		if got := BlockFor(c.m); got != c.b {
			t.Errorf("BlockFor(%d) = %d, want %d", c.m, got, c.b)
		}
	}
	if MaxBlock*2 != sim.TransferBatch {
		t.Errorf("MaxBlock = %d: a block comparator's 2B cells are not one staging window of %d", MaxBlock, sim.TransferBatch)
	}
}

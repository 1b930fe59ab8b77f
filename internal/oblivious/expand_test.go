package oblivious

import (
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"ppj/internal/sim"
)

// Expansion-cell test codec: flag byte (1 = real) + dest uint64 + id uint64.
// All cells are the same length, real or not, as the algorithms require.
func expCell(real bool, dest, id int64) []byte {
	b := make([]byte, 17)
	if real {
		b[0] = 1
	}
	binary.BigEndian.PutUint64(b[1:], uint64(dest))
	binary.BigEndian.PutUint64(b[9:], uint64(id))
	return b
}

func expRoute(pt []byte) (bool, int64) {
	return pt[0] == 1, int64(binary.BigEndian.Uint64(pt[1:]))
}

func expID(pt []byte) int64 { return int64(binary.BigEndian.Uint64(pt[9:])) }

// loadExpCells writes a compacted prefix of K real cells with the given
// destinations into a region of m cells, filling the rest with empties.
func loadExpCells(t *testing.T, h *sim.Host, cop *sim.Coprocessor, m int64, dests []int64) sim.RegionID {
	t.Helper()
	id := h.MustCreateRegion("exp", int(m))
	for i := int64(0); i < m; i++ {
		cell := expCell(false, 0, -1)
		if i < int64(len(dests)) {
			cell = expCell(true, dests[i], i)
		}
		if err := cop.Put(id, i, cell); err != nil {
			t.Fatal(err)
		}
	}
	cop.ResetStats()
	return id
}

// groupTransfers sums the transfer counters of a device group.
func groupTransfers(cops []*sim.Coprocessor) int64 {
	var sum int64
	for _, c := range cops {
		sum += int64(c.Stats().Transfers())
	}
	return sum
}

// TestDistributePlacesAllPatterns drives the routing network over every
// subset-like destination pattern of small sizes and random sparse patterns
// of larger ones, on device groups of one, two and four: real cell k
// (holding id k) must land exactly at dests[k] with every other slot empty.
func TestDistributePlacesAllPatterns(t *testing.T) {
	check := func(t *testing.T, p int, m int64, dests []int64) {
		t.Helper()
		h := sim.NewHost(0)
		cops := spanFleet(t, h, p)
		cop := cops[0]
		id := loadExpCells(t, h, cop, m, dests)
		if err := Distribute(cops, id, m, 1, expRoute); err != nil {
			t.Fatal(err)
		}
		if got, want := groupTransfers(cops), DistributeTransfers(m, 1); got != want {
			t.Fatalf("P=%d m=%d dests=%v: %d transfers, want %d", p, m, dests, got, want)
		}
		want := make(map[int64]int64, len(dests))
		for k, d := range dests {
			want[d] = int64(k)
		}
		for i := int64(0); i < m; i++ {
			pt, err := cop.Get(id, i)
			if err != nil {
				t.Fatal(err)
			}
			real, _ := expRoute(pt)
			wantID, wantReal := want[i]
			if real != wantReal {
				t.Fatalf("P=%d m=%d dests=%v: slot %d real=%v, want %v", p, m, dests, i, real, wantReal)
			}
			if real && expID(pt) != wantID {
				t.Fatalf("P=%d m=%d dests=%v: slot %d holds id %d, want %d", p, m, dests, i, expID(pt), wantID)
			}
		}
	}

	// Exhaustive over m = 5…8: every strictly increasing destination
	// sequence with dest_k >= k is a valid compacted input.
	for _, p := range []int{1, 2, 4} {
		for m := int64(5); m <= 8; m++ {
			var rec func(dests []int64, next int64)
			rec = func(dests []int64, next int64) {
				check(t, p, m, dests)
				for d := next; d < m; d++ {
					if d >= int64(len(dests)) {
						rec(append(dests, d), d+1)
					}
				}
			}
			rec(nil, 0)
		}

		// Random sparse patterns at larger sizes.
		rng := rand.New(rand.NewPCG(11, 13))
		for _, m := range []int64{16, 64, 100, 256} {
			for trial := 0; trial < 8; trial++ {
				var dests []int64
				for d := int64(0); d < m; d++ {
					if int64(len(dests)) <= d && rng.IntN(3) == 0 {
						dests = append(dests, d)
					}
				}
				check(t, p, m, dests)
			}
		}
	}
}

// TestDistributeScheduleInvariance pins content-independence: two runs over
// unrelated destination patterns of the same length charge identical Stats,
// and a single-device host trace digest is identical.
func TestDistributeScheduleInvariance(t *testing.T) {
	run := func(dests []int64) (sim.Stats, uint64) {
		h, cop := newPair(t, 99)
		id := loadExpCells(t, h, cop, 32, dests)
		cop.ResetStats()
		if err := Distribute(one(cop), id, 32, 1, expRoute); err != nil {
			t.Fatal(err)
		}
		return cop.Stats(), cop.Trace().Digest()
	}
	s1, d1 := run([]int64{0, 5, 9, 30})
	s2, d2 := run([]int64{2, 3, 4, 5, 6, 17, 18, 19, 20, 31})
	if s1 != s2 {
		t.Fatalf("distribution stats depend on contents:\n %+v\n %+v", s1, s2)
	}
	if d1 != d2 {
		t.Fatalf("distribution trace depends on contents: %x vs %x", d1, d2)
	}
}

// TestCompactIsStableFilter is Compact's property test. For random keep
// masks — each with its complement, so two masks of one (n, P) always
// differ where n > 0 — and n ∈ {0, 1, 2, 63, 64, 65, 1000} over groups of
// one, two and four devices: the prefix holds exactly the kept cells in
// their original order and the rest holds the dropped ones, the summed
// transfers are CompactTransfers(n, 1), and every mask leaves the same
// per-device trace digest vector.
func TestCompactIsStableFilter(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	for _, n := range []int64{0, 1, 2, 63, 64, 65, 1000} {
		for _, p := range []int{1, 2, 4} {
			run := func(keep []bool) []uint64 {
				h := sim.NewHost(0)
				cops := spanFleet(t, h, p)
				id := h.MustCreateRegion("compact", int(n))
				var kept []int64
				for i := range n {
					if err := cops[0].Put(id, i, expCell(keep[i], int64(len(kept)), i)); err != nil {
						t.Fatal(err)
					}
					if keep[i] {
						kept = append(kept, i)
					}
				}
				for _, c := range cops {
					c.ResetStats()
				}
				if err := Compact(cops, id, n, 1, expRoute); err != nil {
					t.Fatal(err)
				}
				if got, want := groupTransfers(cops), CompactTransfers(n, 1); got != want {
					t.Fatalf("n=%d P=%d: %d transfers, want %d", n, p, got, want)
				}
				for i := range n {
					pt, err := cops[0].Get(id, i)
					if err != nil {
						t.Fatal(err)
					}
					real, _ := expRoute(pt)
					if want := i < int64(len(kept)); real != want {
						t.Fatalf("n=%d P=%d keep=%v: slot %d real=%v, want %v", n, p, keep, i, real, want)
					}
					if real && expID(pt) != kept[i] {
						t.Fatalf("n=%d P=%d keep=%v: slot %d holds cell %d, want %d", n, p, keep, i, expID(pt), kept[i])
					}
				}
				digests := make([]uint64, p)
				for w, c := range cops {
					digests[w] = c.Trace().Digest()
				}
				return digests
			}
			var want []uint64
			for trial := 0; trial < 3; trial++ {
				keep, flip := make([]bool, n), make([]bool, n)
				density := rng.IntN(5)
				for i := range keep {
					keep[i] = rng.IntN(4) < density
					flip[i] = !keep[i]
				}
				for _, mask := range [][]bool{keep, flip} {
					got := run(mask)
					if want == nil {
						want = got
					} else if !slices.Equal(got, want) {
						t.Fatalf("n=%d P=%d: per-device digests %#x depend on the keep mask (first mask left %#x)", n, p, got, want)
					}
				}
			}
		}
	}
}

// TestExpansionValidation pins the refusals of Distribute and Compact: a
// negative length and a device group that is empty or not a power of two.
// Any length n ≥ 0 is accepted — neither network pads.
func TestExpansionValidation(t *testing.T) {
	h := sim.NewHost(0)
	cops := spanFleet(t, h, 3)
	id := h.MustCreateRegion("v", 8)
	for name, net := range map[string]func([]*sim.Coprocessor, sim.RegionID, int64, int64, RouteFunc) error{
		"Distribute": Distribute, "Compact": Compact,
	} {
		if err := net(cops[:1], id, -1, 1, expRoute); err == nil {
			t.Errorf("%s accepted a negative length", name)
		}
		if err := net(nil, id, 8, 1, expRoute); err == nil {
			t.Errorf("%s accepted an empty group", name)
		}
		if err := net(cops, id, 8, 1, expRoute); err == nil {
			t.Errorf("%s accepted a group of three", name)
		}
		for _, b := range []int64{0, 3, 2 * MaxBlock} {
			if err := net(cops[:1], id, 8, b, expRoute); err == nil {
				t.Errorf("%s accepted block size %d", name, b)
			}
		}
	}
}

// TestFillForward checks the duplication scan: empties take a copy of the
// nearest real cell to their left, with fn free to rewrite the occurrence.
func TestFillForward(t *testing.T) {
	h, cop := newPair(t, 5)
	// real(id=10) _ _ real(id=20) _ real(id=30)
	layout := []struct {
		real bool
		id   int64
	}{{true, 10}, {false, 0}, {false, 0}, {true, 20}, {false, 0}, {true, 30}}
	id := h.MustCreateRegion("fill", len(layout))
	for i, c := range layout {
		if err := cop.Put(id, int64(i), expCell(c.real, 0, c.id)); err != nil {
			t.Fatal(err)
		}
	}
	cop.ResetStats()
	isReal := func(pt []byte) bool { r, _ := expRoute(pt); return r }
	err := FillForward(cop, id, int64(len(layout)), isReal, func(k int64, pt, held []byte) ([]byte, error) {
		return expCell(true, k, expID(held)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int64(cop.Stats().Transfers()), FillForwardTransfers(int64(len(layout))); got != want {
		t.Fatalf("%d transfers, want %d", got, want)
	}
	want := []int64{10, 10, 10, 20, 20, 30}
	for i, w := range want {
		pt, err := cop.Get(id, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if expID(pt) != w {
			t.Fatalf("slot %d holds id %d, want %d", i, expID(pt), w)
		}
	}
}

// TestFillForwardNoSource pins the error when the scan starts on a filler.
func TestFillForwardNoSource(t *testing.T) {
	h, cop := newPair(t, 5)
	id := h.MustCreateRegion("fill0", 2)
	for i := 0; i < 2; i++ {
		if err := cop.Put(id, int64(i), expCell(false, 0, -1)); err != nil {
			t.Fatal(err)
		}
	}
	isReal := func(pt []byte) bool { r, _ := expRoute(pt); return r }
	err := FillForward(cop, id, 2, isReal, func(k int64, pt, held []byte) ([]byte, error) {
		return pt, nil
	})
	if err == nil {
		t.Fatal("FillForward succeeded without a real first cell")
	}
}

// TestDistributePairsFormula cross-checks the closed form against the loop
// and against 4·(m·log₂m − (m−1)) at b = 1, and pins Compact's: it runs
// Distribute's pairs, and at n = 4096 it is the 180,228 transfers that
// replace Sort(4096)'s 557,052 in each of Algorithm 7's side expansions at
// b = 1, and 106,624 at b = 32.
func TestDistributePairsFormula(t *testing.T) {
	for _, m := range []int64{1, 2, 4, 8, 64, 1024} {
		var want int64
		for j := m / 2; j >= 1; j >>= 1 {
			want += 4 * (m - j)
		}
		if got := DistributeTransfers(m, 1); got != want {
			t.Errorf("DistributeTransfers(%d, 1) = %d, want %d", m, got, want)
		}
		if lg := int64(bits.Len64(uint64(m)) - 1); want != 4*(m*lg-(m-1)) {
			t.Errorf("DistributeTransfers(%d, 1) = %d, want 4·(m·log₂m − (m−1)) = %d", m, want, 4*(m*lg-(m-1)))
		}
		if got := CompactTransfers(m, 1); got != DistributeTransfers(m, 1) {
			t.Errorf("CompactTransfers(%d, 1) = %d, want DistributeTransfers = %d", m, got, DistributeTransfers(m, 1))
		}
	}
	if got, sort := CompactTransfers(4096, 1), SortTransfers(4096, 1); got != 180228 || sort != 557052 {
		t.Errorf("CompactTransfers(4096, 1) = %d, SortTransfers(4096, 1) = %d; want 180228 and 557052", got, sort)
	}
	if got := CompactTransfers(4096, 32); got != 106624 {
		t.Errorf("CompactTransfers(4096, 32) = %d, want 106624", got)
	}
	for _, n := range []int64{0, 1, 2, 3, 5, 65, 1000} {
		for _, b := range []int64{1, 2, 4, 32} {
			var want int64
			for j := int64(1); j < n; j *= 2 {
				if j >= b {
					want += 4 * (n - j)
				}
			}
			if b > 1 && n > 1 {
				want += 2 * n // the window pass
			}
			if got := CompactTransfers(n, b); got != want {
				t.Errorf("CompactTransfers(%d, %d) = %d, want %d", n, b, got, want)
			}
		}
	}
}

package oblivious

import (
	"fmt"
	"sort"
	"testing"

	"ppj/internal/sim"
)

// spanFleet builds p coprocessors over one host (span-test variant of the
// parallel sort tests' inline construction).
func spanFleet(t *testing.T, h *sim.Host, p int) []*sim.Coprocessor {
	t.Helper()
	cops := make([]*sim.Coprocessor, p)
	for i := range cops {
		var err error
		cops[i], err = sim.NewCoprocessor(h, sim.Config{Sealer: sim.PlainSealer{}, Seed: uint64(i) + 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	return cops
}

// one is the one-device group.
func one(t *sim.Coprocessor) []*sim.Coprocessor { return []*sim.Coprocessor{t} }

// TestGroupFormsOnOneDeviceAreTheSequentialNetworks pins the group forms on
// a one-device group to the sequential network, whose absolute Stats and
// digests the schedule lockfile (internal/core/testdata) holds: SortSpan at
// offset 0 is Sort, trace for trace, and at offset 16 charges Sort's Stats;
// and sorting m = 2^k cells is sorting each half with SortSpan and then
// MergeHalves — the odd-even mergesort recursion — trace for trace. Each
// digest covers loading the cells through the same device first.
func TestGroupFormsOnOneDeviceAreTheSequentialNetworks(t *testing.T) {
	type op func(*sim.Coprocessor, sim.RegionID) error
	run := func(total int64, ops ...op) (sim.Stats, uint64) {
		h, cop := newPair(t, 1)
		vals := make([]uint64, total)
		for i := range vals {
			vals[i] = uint64((int64(i)*7919 + 3) % 101)
		}
		id := loadInts(t, h, cop, "g", vals)
		for _, o := range ops {
			if err := o(cop, id); err != nil {
				t.Fatal(err)
			}
		}
		return cop.Stats(), h.Trace().Digest()
	}
	span := func(lo, n int64) op {
		return func(c *sim.Coprocessor, id sim.RegionID) error { return SortSpan(one(c), id, lo, n, 1, intLess) }
	}
	sorted := func(n int64) op {
		return func(c *sim.Coprocessor, id sim.RegionID) error { return Sort(c, id, n, intLess) }
	}
	for _, n := range []int64{2, 5, 8, 13, 64, 100} {
		m := NextPow2(n)
		want, wantDigest := run(m, sorted(n))
		if got, digest := run(m, span(0, n)); got != want || digest != wantDigest {
			t.Errorf("SortSpan lo=0 n=%d: stats %+v digest %#x, Sort's are %+v %#x", n, got, digest, want, wantDigest)
		}
		if got, _ := run(16+m, span(16, n)); got != want {
			t.Errorf("SortSpan lo=16 n=%d: stats %+v, Sort's are %+v", n, got, want)
		}
	}
	for _, m := range []int64{2, 8, 64, 128} {
		merge := func(c *sim.Coprocessor, id sim.RegionID) error { return MergeHalves(one(c), id, m, 1, intLess) }
		want, wantDigest := run(m, sorted(m))
		if got, digest := run(m, span(0, m/2), span(m/2, m/2), merge); got != want || digest != wantDigest {
			t.Errorf("two half sorts + MergeHalves m=%d: stats %+v digest %#x, Sort's are %+v %#x",
				m, got, digest, want, wantDigest)
		}
	}
}

// TestSortSpanSortsAtOffset sorts sub-spans at non-zero offsets and checks
// both the sorted span and that cells outside [lo, lo+NextPow2(n)) are
// untouched, plus the exact SortTransfers count.
func TestSortSpanSortsAtOffset(t *testing.T) {
	for _, tc := range []struct{ lo, n int64 }{{0, 7}, {8, 8}, {16, 5}, {32, 13}} {
		t.Run(fmt.Sprintf("lo=%d_n=%d", tc.lo, tc.n), func(t *testing.T) {
			h, cop := newPair(t, 11)
			m := NextPow2(tc.n)
			total := tc.lo + m + 4 // slack above the envelope
			vals := make([]uint64, total)
			for i := range vals {
				vals[i] = uint64((int64(i)*7919 + 3) % 101)
			}
			id := loadInts(t, h, cop, "span", vals)
			if err := SortSpan(one(cop), id, tc.lo, tc.n, 1, intLess); err != nil {
				t.Fatal(err)
			}
			got := readInts(t, cop, id, tc.lo+tc.n)
			want := append([]uint64(nil), vals[tc.lo:tc.lo+tc.n]...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for i := int64(0); i < tc.lo; i++ {
				if got[i] != vals[i] {
					t.Fatalf("cell %d below the span was touched: %d -> %d", i, vals[i], got[i])
				}
			}
			for i, w := range want {
				if got[tc.lo+int64(i)] != w {
					t.Fatalf("span position %d: got %d want %d", i, got[tc.lo+int64(i)], w)
				}
			}
			for i := tc.lo + m; i < total; i++ {
				pt, err := cop.Get(id, i)
				if err != nil {
					t.Fatal(err)
				}
				if decodeInt(pt) != vals[i] {
					t.Fatalf("cell %d above the envelope was touched", i)
				}
			}
		})
	}
}

// TestSortSpanTransferCountExact pins SortSpan's cost to SortTransfers(n, 1),
// measured with no other charged operations in the window.
func TestSortSpanTransferCountExact(t *testing.T) {
	for _, n := range []int64{2, 5, 16, 37} {
		lo := int64(8)
		h, cop := newPair(t, 5)
		total := lo + NextPow2(n)
		vals := make([]uint64, total)
		for i := range vals {
			vals[i] = uint64(total) - uint64(i)
		}
		id := loadInts(t, h, cop, "span", vals)
		if err := SortSpan(one(cop), id, lo, n, 1, intLess); err != nil {
			t.Fatal(err)
		}
		if got, want := int64(cop.Stats().Transfers()), SortTransfers(n, 1); got != want {
			t.Fatalf("n=%d: SortSpan transfers = %d, want SortTransfers = %d", n, got, want)
		}
	}
}

// TestMergeHalvesMergesSortedHalves sorts each half independently, merges,
// and checks the whole array is ascending with the exact merge cost.
func TestMergeHalvesMergesSortedHalves(t *testing.T) {
	for _, m := range []int64{2, 8, 32, 128} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			h, cop := newPair(t, 7)
			vals := make([]uint64, m)
			for i := range vals {
				vals[i] = uint64((int64(i)*2654435761 + 9) % 500)
			}
			id := loadInts(t, h, cop, "mh", vals)
			half := m / 2
			if err := SortSpan(one(cop), id, 0, half, 1, intLess); err != nil {
				t.Fatal(err)
			}
			if err := SortSpan(one(cop), id, half, half, 1, intLess); err != nil {
				t.Fatal(err)
			}
			cop.ResetStats()
			if err := MergeHalves(one(cop), id, m, 1, intLess); err != nil {
				t.Fatal(err)
			}
			if got, want := int64(cop.Stats().Transfers()), MergeHalvesTransfers(m, 1); got != want {
				t.Fatalf("m=%d: MergeHalves transfers = %d, want %d", m, got, want)
			}
			got := readInts(t, cop, id, m)
			want := append([]uint64(nil), vals...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("position %d: got %d want %d", i, got[i], want[i])
				}
			}
		})
	}
}

// TestMergeHalvesKeepsPaddingMaximal pads the top of each half (the cached-
// half layout: q real cells then pads) and checks real cells come out
// ascending ahead of every pad.
func TestMergeHalvesKeepsPaddingMaximal(t *testing.T) {
	h, cop := newPair(t, 9)
	const m, half, qA, qB = 16, 8, 5, 3
	id := h.MustCreateRegion("mhp", m)
	put := func(i int64, v uint64) {
		if err := cop.Put(id, i, encodeInt(v)); err != nil {
			t.Fatal(err)
		}
	}
	// Half A: 5 sorted reals then pads; half B: 3 sorted reals then pads.
	for i, v := range []uint64{2, 4, 6, 8, 10} {
		put(int64(i), v)
	}
	if err := PadRange(cop, id, qA, half); err != nil {
		t.Fatal(err)
	}
	for i, v := range []uint64{1, 5, 9} {
		put(half+int64(i), v)
	}
	if err := PadRange(cop, id, half+qB, m); err != nil {
		t.Fatal(err)
	}
	if err := MergeHalves(one(cop), id, m, 1, intLess); err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 4, 5, 6, 8, 9, 10}
	for i, w := range want {
		pt, err := cop.Get(id, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if isPad(pt) || decodeInt(pt) != w {
			t.Fatalf("position %d: got pad=%v val=%v, want %d", i, isPad(pt), pt, w)
		}
	}
	for i := int64(qA + qB); i < m; i++ {
		pt, err := cop.Get(id, i)
		if err != nil {
			t.Fatal(err)
		}
		if !isPad(pt) {
			t.Fatalf("position %d: real cell after the reals, want pad", i)
		}
	}
}

// TestParallelSpanMatchesSequential checks SortSpan and MergeHalves over a
// device group produce the sorted result with the same summed transfer
// count at every group size.
func TestParallelSpanMatchesSequential(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			const lo, n = 16, 32
			h := sim.NewHost(0)
			cops := spanFleet(t, h, p)
			m := NextPow2(int64(n))
			id := h.MustCreateRegion("pspan", int(lo+2*m))
			vals := make([]uint64, lo+2*m)
			for i := range vals {
				vals[i] = uint64((int64(i)*48271 + 11) % 777)
				if err := cops[0].Put(id, int64(i), encodeInt(vals[i])); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range cops {
				c.ResetStats()
			}
			if err := SortSpan(cops, id, lo, n, 1, intLess); err != nil {
				t.Fatal(err)
			}
			var sorted int64
			for _, c := range cops {
				sorted += int64(c.Stats().Transfers())
			}
			if want := SortTransfers(n, 1); sorted != want {
				t.Fatalf("p=%d: summed sort transfers = %d, want %d", p, sorted, want)
			}
			got := readInts(t, cops[0], id, lo+n)
			want := append([]uint64(nil), vals[lo:lo+n]...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for i := range want {
				if got[lo+int64(i)] != want[i] {
					t.Fatalf("span position %d: got %d want %d", i, got[lo+int64(i)], want[i])
				}
			}
			for i := int64(0); i < lo; i++ {
				if got[i] != vals[i] {
					t.Fatalf("cell %d below the span was touched", i)
				}
			}

			// Merge two independently sorted halves of [0, 2m) on the group.
			h2 := sim.NewHost(0)
			cops2 := spanFleet(t, h2, p)
			id2 := h2.MustCreateRegion("pmerge", int(2*m))
			vals2 := make([]uint64, 2*m)
			for i := range vals2 {
				vals2[i] = uint64((int64(i)*69621 + 5) % 999)
				if err := cops2[0].Put(id2, int64(i), encodeInt(vals2[i])); err != nil {
					t.Fatal(err)
				}
			}
			if err := SortSpan(cops2[:1], id2, 0, m, 1, intLess); err != nil {
				t.Fatal(err)
			}
			if err := SortSpan(cops2[:1], id2, m, m, 1, intLess); err != nil {
				t.Fatal(err)
			}
			for _, c := range cops2 {
				c.ResetStats()
			}
			if err := MergeHalves(cops2, id2, 2*m, 1, intLess); err != nil {
				t.Fatal(err)
			}
			var sum int64
			for _, c := range cops2 {
				sum += int64(c.Stats().Transfers())
			}
			if want := MergeHalvesTransfers(2*m, 1); sum != want {
				t.Fatalf("p=%d: summed merge transfers = %d, want %d", p, sum, want)
			}
			got2 := readInts(t, cops2[0], id2, 2*m)
			want2 := append([]uint64(nil), vals2...)
			sort.Slice(want2, func(i, j int) bool { return want2[i] < want2[j] })
			for i := range want2 {
				if got2[i] != want2[i] {
					t.Fatalf("merged position %d: got %d want %d", i, got2[i], want2[i])
				}
			}
		})
	}
}

// TestSpanValidation pins the typed refusals of the span entry points.
func TestSpanValidation(t *testing.T) {
	h, cop := newPair(t, 1)
	id := h.MustCreateRegion("v", 8)
	if err := SortSpan(one(cop), id, -1, 4, 1, intLess); err == nil {
		t.Fatal("SortSpan accepted a negative offset")
	}
	if err := SortSpan(one(cop), id, 0, -1, 1, intLess); err == nil {
		t.Fatal("SortSpan accepted a negative count")
	}
	if err := MergeHalves(one(cop), id, 6, 1, intLess); err == nil {
		t.Fatal("MergeHalves accepted a non-power-of-two size")
	}
	if err := SortSpan(nil, id, 0, 4, 1, intLess); err == nil {
		t.Fatal("SortSpan accepted an empty group")
	}
	if err := MergeHalves(nil, id, 4, 1, intLess); err == nil {
		t.Fatal("MergeHalves accepted an empty group")
	}
}

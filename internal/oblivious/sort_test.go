package oblivious

import (
	"fmt"
	"sort"
	"testing"

	"ppj/internal/costmodel"
)

func TestSortOddEvenSortsAllSizes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 8, 13, 16, 31, 64, 100} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			h, cop := newPair(t, uint64(n)+31)
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = uint64((i*104729 + 7) % 89)
			}
			id := loadInts(t, h, cop, "s", vals)
			if err := SortOddEven(cop, id, int64(n), intLess); err != nil {
				t.Fatal(err)
			}
			got := readInts(t, cop, id, int64(n))
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

func TestSortOddEvenTransferCountExact(t *testing.T) {
	for _, n := range []int64{2, 3, 8, 16, 37, 128} {
		h, cop := newPair(t, 41)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(n) - uint64(i)
		}
		id := loadInts(t, h, cop, "s", vals)
		if err := SortOddEven(cop, id, n, intLess); err != nil {
			t.Fatal(err)
		}
		if got, want := int64(cop.Stats().Transfers()), SortTransfers(n, 1); got != want {
			t.Errorf("n=%d: transfers %d, want %d", n, got, want)
		}
	}
}

func TestOddEvenBeatsBitonicComparators(t *testing.T) {
	// The network runs fewer comparators than the thesis's bitonic one at
	// every power-of-two size above two cells.
	for m := int64(4); m <= 1<<20; m *= 2 {
		if oe, bi := Comparators(m), costmodel.BitonicComparators(m); oe >= bi {
			t.Errorf("m=%d: odd-even %d >= bitonic %d", m, oe, bi)
		}
	}
	// Knuth §5.3.4's closed form, (k²−k+4)·2^(k−2) − 1 for m = 2^k, checks
	// the recursion independently.
	for k := int64(1); k <= 20; k++ {
		m := int64(1) << k
		if got, want := Comparators(m), (k*k-k+4)*m/4-1; got != want {
			t.Errorf("m=%d: comparators %d, want closed form %d", m, got, want)
		}
	}
}

func TestSortOddEvenAccessPatternDataIndependent(t *testing.T) {
	run := func(vals []uint64) (uint64, uint64) {
		h, cop := newPair(t, 43)
		id := h.MustCreateRegion("s", len(vals))
		for i, v := range vals {
			if err := cop.Put(id, int64(i), encodeInt(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := SortOddEven(cop, id, int64(len(vals)), intLess); err != nil {
			t.Fatal(err)
		}
		return h.Trace().Digest(), h.Trace().Count()
	}
	d1, c1 := run([]uint64{9, 1, 8, 2, 7, 3, 6, 4, 5, 0})
	d2, c2 := run([]uint64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	if d1 != d2 || c1 != c2 {
		t.Fatal("odd-even sort access pattern depends on data")
	}
}

func TestSortOddEvenRejectsNegative(t *testing.T) {
	h, cop := newPair(t, 1)
	id := h.MustCreateRegion("s", 0)
	if err := SortOddEven(cop, id, -1, intLess); err == nil {
		t.Fatal("negative n accepted")
	}
}
